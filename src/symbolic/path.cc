#include "symbolic/path.h"

namespace compi::sym {

bool Path::diverges_as_predicted(const Path& other, std::size_t depth) const {
  if (other.size() <= depth || size() <= depth) return false;
  for (std::size_t i = 0; i < depth; ++i) {
    if (entries_[i].site != other.entries_[i].site ||
        entries_[i].taken != other.entries_[i].taken) {
      return false;
    }
  }
  return entries_[depth].site == other.entries_[depth].site &&
         entries_[depth].taken != other.entries_[depth].taken;
}

}  // namespace compi::sym
