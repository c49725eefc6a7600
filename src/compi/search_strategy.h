// Search strategies: which constraint to negate next (paper §II-B).
//
// CREST ships four strategies; COMPI adopts BoundedDFS with a two-phase
// bound estimation because MPI programs front-load a deep sanity check that
// only a systematic in-path-order search can traverse.  All four are
// implemented here, plus unbounded DFS, so Fig. 4 can be regenerated.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "compi/coverage.h"
#include "compi/options.h"
#include "runtime/branch_table.h"
#include "solver/predicate.h"
#include "symbolic/path.h"
#include "symbolic/serialize.h"

namespace compi {

/// A proposed next test: follow a recorded path up to `depth`, then take
/// the other side.  A view, not a copy: it shares the path (the constraint
/// store the solver reads in place) and names the entry to negate.
struct Candidate {
  std::shared_ptr<const sym::Path> path;
  std::size_t depth = 0;
  /// Branch the negation steers toward — the UNTAKEN arm of the flipped
  /// path entry.  -1 when unknown; the attribution ledger keys solver
  /// near-misses on it.
  sym::BranchId target = -1;

  /// The constraint the next test must satisfy: entry `depth`, negated.
  [[nodiscard]] solver::Predicate negated() const {
    return (*path)[depth].constraint.negated();
  }
};

struct StrategyStats {
  std::size_t candidates_issued = 0;
  std::size_t prediction_failures = 0;
};

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  /// Reports the focus path of a completed execution.  `flipped_depth` is
  /// the depth of the accepted candidate that produced this run, or nullopt
  /// for an initial/restart run.  Strategies keep the path itself, shared
  /// by every candidate they draw from it.
  virtual void observe(std::shared_ptr<const sym::Path> path,
                       std::optional<std::size_t> flipped_depth) = 0;

  /// Next constraint negation to try; nullopt when the strategy is out of
  /// ideas (the driver then restarts with fresh random inputs).  Rejected
  /// (UNSAT) candidates are simply not re-proposed; call again for the next.
  [[nodiscard]] virtual std::optional<Candidate> next() = 0;

  /// Notification that the previous candidate solved SAT and will run.
  virtual void accepted(const Candidate& candidate) { (void)candidate; }

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] const StrategyStats& stats() const { return stats_; }

  /// Checkpoint support: serializes the strategy's full mutable state
  /// (pending frames/queues, RNG engines, stats) as line-oriented text, and
  /// restores it so a resumed campaign proposes exactly the candidates the
  /// killed one would have.  `load_state` returns false on parse errors,
  /// a path naming a variable outside [0, num_vars) among them (the caller
  /// then falls back to an older snapshot or a fresh campaign).
  virtual void save_state(std::ostream& os) const;
  [[nodiscard]] virtual bool load_state(std::istream& is,
                                        std::size_t num_vars = serial::kAnyVar);

 protected:
  StrategyStats stats_;
};

struct StrategyConfig {
  SearchKind kind = SearchKind::kBoundedDfs;
  /// Depth bound for BoundedDFS (ignored by others); SIZE_MAX = unbounded.
  std::size_t bound = static_cast<std::size_t>(-1);
  std::uint64_t seed = 1;
  /// For the CFG strategy: static branch table and live coverage.
  const rt::BranchTable* table = nullptr;
  const CoverageTracker* coverage = nullptr;
};

[[nodiscard]] std::unique_ptr<SearchStrategy> make_strategy(
    const StrategyConfig& config);

}  // namespace compi
