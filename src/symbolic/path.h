// Execution paths: the per-run symbolic history concolic testing consumes.
//
// A Path records, in execution order, every branch the focus process took
// whose condition was symbolic, together with the constraint satisfied by
// the taken direction.  Negating the constraint at position i (and keeping
// positions [0, i) as-is) asks the solver for inputs that steer execution
// down the other side of that branch — the core move of concolic testing.
//
// A recorded Path is also the constraint store every candidate drawn from
// it reads (solver/store.h): the path indexes, per variable, the entries
// that mention it as they are appended, and candidates share the path
// rather than copying its prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solver/predicate.h"
#include "solver/store.h"

namespace compi::sym {

/// Static branch-site identifier (index into a target's BranchTable).
using SiteId = std::int32_t;

/// Branch id: 2*site for the FALSE arm, 2*site+1 for the TRUE arm.
using BranchId = std::int32_t;

[[nodiscard]] constexpr BranchId branch_id(SiteId site, bool taken) {
  return static_cast<BranchId>(site) * 2 + (taken ? 1 : 0);
}
[[nodiscard]] constexpr SiteId site_of(BranchId b) { return b / 2; }
[[nodiscard]] constexpr bool direction_of(BranchId b) { return (b & 1) != 0; }

/// One recorded symbolic branch.
struct PathEntry {
  SiteId site = 0;
  bool taken = false;
  /// Constraint satisfied by the taken direction.
  solver::Predicate constraint;
};

/// The symbolic execution history of one run of the focus process.
class Path final : public solver::ConstraintStore {
 public:
  void clear() {
    entries_.clear();
    occ_.clear();
  }
  void append(SiteId site, bool taken, solver::Predicate constraint) {
    occ_.add(static_cast<std::uint32_t>(entries_.size()), constraint.expr);
    entries_.push_back({site, taken, std::move(constraint)});
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }
  [[nodiscard]] const PathEntry& operator[](std::size_t i) const {
    return entries_[i];
  }
  [[nodiscard]] const std::vector<PathEntry>& entries() const {
    return entries_;
  }

  // ---- the constraint store: entry i's constraint as satisfied ----
  [[nodiscard]] const solver::Predicate& predicate(
      std::size_t i) const override {
    return entries_[i].constraint;
  }
  [[nodiscard]] const solver::OccurrenceIndex& occurrences() const override {
    return occ_;
  }

  /// True when `other` starts with the same (site, direction) sequence as
  /// this path's first `depth` entries, and entry `depth` (when present in
  /// both) covers the same site with the opposite direction.  Used for the
  /// DFS "prediction" check.
  [[nodiscard]] bool diverges_as_predicted(const Path& other,
                                           std::size_t depth) const;

 private:
  std::vector<PathEntry> entries_;
  solver::OccurrenceIndex occ_;
};

}  // namespace compi::sym
