#include "runtime/var_registry.h"

namespace compi::rt {

const char* to_string(VarKind k) {
  switch (k) {
    case VarKind::kRegular: return "regular";
    case VarKind::kRankWorld: return "rw";
    case VarKind::kRankLocal: return "rc";
    case VarKind::kSizeWorld: return "sw";
  }
  return "?";
}

Var VarRegistry::intern(std::string_view key, VarKind kind,
                        solver::Interval domain,
                        std::optional<std::int64_t> cap, int comm_index) {
  std::scoped_lock lock(mu_);
  auto it = by_key_.find(std::string(key));
  if (it != by_key_.end()) return it->second;
  const Var v = static_cast<Var>(metas_.size());
  by_key_.emplace(std::string(key), v);
  metas_.push_back({std::string(key), kind, domain, cap, comm_index});
  return v;
}

std::size_t VarRegistry::size() const {
  std::scoped_lock lock(mu_);
  return metas_.size();
}

VarMeta VarRegistry::meta(Var v) const {
  std::scoped_lock lock(mu_);
  return metas_[v];
}

std::vector<VarMeta> VarRegistry::all() const {
  std::scoped_lock lock(mu_);
  return metas_;
}

std::vector<VarMeta> VarRegistry::metas_from(std::size_t start) const {
  std::scoped_lock lock(mu_);
  if (start >= metas_.size()) return {};
  return {metas_.begin() + static_cast<std::ptrdiff_t>(start), metas_.end()};
}

solver::Interval VarRegistry::effective_domain(Var v) const {
  std::scoped_lock lock(mu_);
  const VarMeta& m = metas_[v];
  solver::Interval dom = m.domain;
  if (m.cap) dom.hi = std::min(dom.hi, *m.cap);
  return dom;
}

std::vector<Var> VarRegistry::of_kind(VarKind k) const {
  std::scoped_lock lock(mu_);
  std::vector<Var> out;
  for (std::size_t i = 0; i < metas_.size(); ++i) {
    if (metas_[i].kind == k) out.push_back(static_cast<Var>(i));
  }
  return out;
}

}  // namespace compi::rt
