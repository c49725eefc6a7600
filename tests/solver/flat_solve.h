// Test helper: the incremental solve of a flat constraint list whose last
// element is the negated constraint.  The list's prefix becomes the store
// and the last element the negation; there are no side predicates.
#pragma once

#include <span>
#include <vector>

#include "solver/solver.h"
#include "solver/store.h"

namespace compi::solver {

/// `preds` must be non-empty.
[[nodiscard]] inline SolveResult solve_flat(const Solver& s,
                                            std::span<const Predicate> preds,
                                            const DomainMap& domains,
                                            const Assignment& previous,
                                            SolveCache* cache = nullptr) {
  const PredicateStore prefix(
      std::vector<Predicate>(preds.begin(), preds.end() - 1));
  return s.solve_incremental(prefix, prefix.size(), PredicateStore{},
                             preds.back(), domains, previous, cache);
}

}  // namespace compi::solver
