// Distributed work intake for campaign engines (the shard side of the
// coordinator protocol, abstracted).
//
// A WorkSource decides how many of the next iterations may run and absorbs
// the results of completed ones.  When CampaignOptions::work_source is
// set, the campaign (driver.cc) leases each epoch's ordinals with one
// acquire() before dealing them, reports once per applied epoch and drains
// the remote coverage; a null pointer (the default) leaves the engine
// byte-identical to its standalone behaviour.
//
// The contract is built for idempotent re-execution: report() always
// carries the shard's FULL covered set, FULL bug list, and CUMULATIVE
// iteration count, so a delta replayed after a reconnect (or a lease
// reclaimed from a dead shard and re-granted elsewhere) merges to the same
// global state.  Coverage learned from other shards flows back through
// take_remote_coverage()/take_remote_interleavings(); merged into every
// worker's view before the next epoch, it steers strategies away from
// branches the fleet already covered — that is how the frontier is
// partitioned without any per-candidate ownership protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "symbolic/path.h"

namespace compi {

struct BugRecord;

/// One report of the iterations applied so far.  Vectors are FULL local
/// state, not increments (see file comment); `ledger_blob` is evaluated
/// lazily so the transport only pays for a CoverageLedger::write when it
/// actually transmits.
struct WorkDelta {
  /// Cumulative local iterations completed (not an increment).
  std::int64_t iterations_completed = 0;
  /// Full local covered branch set.
  std::vector<sym::BranchId> covered;
  /// Full local interleaving sleep-set hashes (--explore-matchings).
  std::vector<std::uint64_t> interleaving_seen;
  /// Full local bug list.
  std::vector<BugRecord> bugs;
  /// Renders the full CoverageLedger snapshot; may be empty (no ledger
  /// upload).  Called at most once per transmission, on the caller's
  /// thread.
  std::function<std::string()> ledger_blob;
  /// The campaign is finalizing: flush everything now.
  bool final_report = false;

  // ---- telemetry piggyback (all cumulative since campaign start) ----
  /// Shard wall time so the coordinator can compute iters/sec without
  /// trusting cross-host clocks.
  std::int64_t elapsed_us = 0;
  std::int64_t frontier_depth = 0;         ///< pending negation candidates
  std::int64_t interleavings_pending = 0;  ///< unexplored match frontier
  std::int64_t solver_sat = 0;
  std::int64_t solver_unsat = 0;
  std::int64_t solver_budget = 0;          ///< budget-exhausted solves
  std::int64_t exec_us = 0;                ///< cumulative execution time
  std::int64_t solve_us = 0;               ///< cumulative solver time
};

class WorkSource {
 public:
  virtual ~WorkSource() = default;

  /// Permission to run up to `wanted` more iterations: returns how many
  /// (at least one), blocking while it can grant none (waiting for a lease
  /// or backing off a reconnect); 0 when the global budget is exhausted —
  /// the engine then winds down exactly as if its local iteration budget
  /// ran out.  Thread-safe.
  [[nodiscard]] virtual int acquire(int wanted) = 0;

  /// Absorbs the results of the iterations applied so far (WorkDelta).  The
  /// implementation decides when to actually transmit.  Thread-safe.
  virtual void report(const WorkDelta& delta) = 0;

  /// Drains branch ids covered remotely since the last call.  The engine
  /// merges them into its CoverageTracker before planning.  Thread-safe.
  [[nodiscard]] virtual std::vector<sym::BranchId> take_remote_coverage() = 0;

  /// Drains interleaving hashes seen remotely since the last call (merged
  /// into the local sleep set so shards do not replay each other's
  /// matchings).  Thread-safe.
  [[nodiscard]] virtual std::vector<std::uint64_t>
  take_remote_interleavings() = 0;
};

}  // namespace compi
