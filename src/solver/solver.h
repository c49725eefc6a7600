// The constraint solver (Yices substitute).
//
// Solves conjunctions of linear integer predicates over bounded domains via
// interval propagation + backtracking search, and offers the *incremental*
// mode concolic testing uses (paper §III-C "Incremental solving property"):
// only the constraints transitively sharing variables with the negated
// constraint are re-solved; every other variable keeps its previous value.
// The result therefore distinguishes *changed* variables (whose values are
// "most up-to-date") from stale ones — the property COMPI's rank-conflict
// resolution depends on.
//
// An incremental query reads a recorded path in place (store.h): the
// entries below a depth, the run's side predicates (the MPI-semantics
// constraints) and one negated entry.  The slice is found by BFS over the
// stores' occurrence lists, and propagation and search run on the slice
// renumbered onto dense variable ids, so a query costs O(slice) whatever
// the path's length.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "solver/cache.h"
#include "solver/predicate.h"
#include "solver/propagation.h"
#include "solver/store.h"

namespace compi::solver {

/// A full assignment of values to variables.
using Assignment = std::unordered_map<Var, std::int64_t>;

struct SolverOptions {
  /// Backtracking-search node budget; exceeding it reports "unsolved"
  /// (treated by the driver like an UNSAT/solver-timeout, as with Yices).
  std::int64_t max_search_nodes = 200'000;
  /// Values enumerated exhaustively when a domain is at most this wide.
  std::int64_t exhaustive_width = 512;
};

/// Result of an incremental solve.
struct SolveResult {
  bool sat = false;
  Assignment values;           // complete (solved vars merged over previous)
  std::vector<Var> changed;    // vars whose value differs from the previous
  /// Unsat verdict was forced by the node budget, not proven: the query is
  /// *unknown* and may succeed with a larger budget (transient failure —
  /// the driver retries these with a relaxed budget before giving up).
  bool budget_exhausted = false;
  /// Backtracking-search nodes expanded by this query (per-iteration solver
  /// cost accounting: iterations.csv's solver_nodes column).
  std::int64_t nodes_searched = 0;
  /// Constraints in the dependency slice actually re-solved, the negation
  /// included (the journal's per-solve cost signal).
  std::size_t slice_size = 0;
  /// Answered from the memoization cache: no search ran (nodes_searched is
  /// 0) but the verdict and model are exactly what the search would have
  /// produced (the cache key covers everything the search depends on).
  bool cache_hit = false;
};

/// One incremental query's dependency slice.  Solved in this order:
/// path entries ascending, side predicates ascending, then the negation.
struct Slice {
  std::vector<std::uint32_t> path;  // store indices, all below the depth
  std::vector<std::uint32_t> side;  // side-store indices
  std::vector<Var> vars;            // every variable of the slice, ascending
  /// Predicates the BFS read: the negation, then every slice predicate
  /// once per variable it has and nothing else, so finding a slice costs
  /// O(slice edges) whatever the depth (tests pin this count).
  std::size_t touched = 0;

  [[nodiscard]] std::size_t size() const {
    return path.size() + side.size() + 1;
  }
};

class Solver {
 public:
  explicit Solver(SolverOptions opts = {}) : opts_(opts) {}

  /// Solves the conjunction of `preds` over `domains`.  `prefer` supplies
  /// values to try first (the previous test's inputs), which both speeds up
  /// search and maximizes value reuse.  Returns values for every variable
  /// appearing in `preds` or `domains`; nullopt when UNSAT or budget-bound
  /// (`budget_exhausted`, when given, tells the two apart).
  [[nodiscard]] std::optional<Assignment> solve(
      std::span<const Predicate> preds, const DomainMap& domains,
      const Assignment& prefer = {},
      bool* budget_exhausted = nullptr,
      std::int64_t* nodes_searched = nullptr) const;

  /// CREST-style incremental solve: "follow `path` below `depth`, then
  /// satisfy `negated`" (the negation of entry `depth`), together with the
  /// `side` predicates.  `previous` is the input assignment that satisfied
  /// the un-negated set.  Re-solves only the dependency slice of `negated`
  /// and keeps previous values elsewhere.  A non-null `cache` memoizes
  /// definitive answers keyed on the normalized slice (cache.h): hits skip
  /// the search entirely while returning the identical verdict, model and
  /// changed set.
  [[nodiscard]] SolveResult solve_incremental(
      const ConstraintStore& path, std::size_t depth,
      const ConstraintStore& side, const Predicate& negated,
      const DomainMap& domains, const Assignment& previous,
      SolveCache* cache = nullptr) const;

  /// The dependency slice of `negated` over `path` entries below `depth`
  /// plus `side`: the predicates transitively sharing a variable with it.
  /// Exposed for tests.
  [[nodiscard]] static Slice dependency_slice(const ConstraintStore& path,
                                              std::size_t depth,
                                              const ConstraintStore& side,
                                              const Predicate& negated);

 private:
  SolverOptions opts_;
};

}  // namespace compi::solver
