// The iterative testing driver (paper §II-A, Fig. 3).
//
// One Campaign = one testing session: repeatedly (1) launch the target with
// the planned (nprocs, focus, inputs), (2) union coverage across all ranks,
// (3) pick a constraint to negate per the search strategy, (4) solve the
// updated set incrementally, and (5) derive the next plan via the MPI
// framework.  Faults are logged with their error-inducing inputs; when the
// strategy runs dry or the solver keeps failing, the campaign restarts from
// fresh random inputs (paper §VI: "we just redo the testing").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compi/coverage.h"
#include "compi/framework.h"
#include "compi/options.h"
#include "compi/search_strategy.h"
#include "compi/target.h"
#include "runtime/var_registry.h"

namespace compi {

struct IterationRecord {
  int iteration = 0;
  int nprocs = 0;
  int focus = 0;
  rt::Outcome outcome = rt::Outcome::kOk;
  /// Size of the focus's recorded constraint set this run (Fig. 9).
  std::size_t constraint_set_size = 0;
  /// Cumulative covered branches after this iteration (coverage curves).
  std::size_t covered_branches = 0;
  double exec_seconds = 0.0;
  double solve_seconds = 0.0;
  bool restart = false;  // this run used fresh random inputs
  /// Backtracking-search nodes expanded by this iteration's solver queries
  /// (summed over candidates and budget retries).
  std::int64_t solver_nodes = 0;
  /// Transient-failure retries absorbed this iteration (timeout re-runs and
  /// relaxed-budget solver re-queries).
  int retries = 0;
  /// Campaign worker that executed this iteration (0 for the serial path).
  int worker = 0;
  /// Interleaving id when this iteration replayed a reordered wildcard
  /// matching (--explore-matchings); -1 for ordinary input-driven runs.
  std::int64_t interleaving = -1;
};

/// One discovered bug: the failure plus its error-inducing test setup.
struct BugRecord {
  int first_iteration = 0;
  int occurrences = 0;
  rt::Outcome outcome = rt::Outcome::kOk;
  std::string message;
  solver::Assignment inputs;
  /// Same values keyed by variable name (replayable via run_fixed).
  std::map<std::string, std::int64_t> named_inputs;
  int nprocs = 0;
  int focus = 0;
  /// The confirmation re-execution (same inputs, chaos off) did NOT
  /// reproduce the failure: likely environment noise, not a target bug.
  bool flaky = false;
  /// Wildcard decision vector of the failing run (match-scheduled runs
  /// only): replaying it as a match plan reproduces the interleaving — and
  /// hence matching-order-dependent failures — deterministically.
  minimpi::MatchPlan decisions;
};

/// The campaign's running counters: a checkpoint carries them across a
/// kill + resume as they are.
struct CampaignCounters {
  std::size_t max_constraint_set = 0;
  std::size_t depth_bound_used = 0;
  std::size_t restarts = 0;
  /// Transient failures absorbed by the retry policy (solver budget
  /// exhaustion, per-test timeouts) instead of counting toward a restart.
  std::size_t transient_retries = 0;
  /// Iterations salvaged by moving the focus to another rank after the
  /// planned focus died without recording a usable path.
  std::size_t focus_replans = 0;
  /// Sandbox (--isolate) accounting: tests run in a forked child, children
  /// killed by a real signal, children SIGKILLed by the hang watchdog, and
  /// bytes salvaged from dead children (pipe stream + harvested coverage).
  std::size_t sandbox_runs = 0;
  std::size_t sandbox_signal_kills = 0;
  std::size_t sandbox_hang_kills = 0;
  std::size_t sandbox_harvest_bytes = 0;
  /// Fork-server engine accounting (--isolate with --fork-server=on, the
  /// default): iterations forked warm from the server snapshot, iterations
  /// that fell back to a cold per-iteration fork, and server deaths
  /// absorbed by a restart.  batch_runs counts --batch-reset iterations
  /// executed in-process with zero process creation (NOT included in
  /// sandbox_runs).
  std::size_t warm_spawns = 0;
  std::size_t cold_forks = 0;
  std::size_t fork_server_restarts = 0;
  std::size_t batch_runs = 0;
  /// Wildcard-matching exploration accounting (--explore-matchings; all
  /// zero when exploration is off).  Pruned counts alternatives dropped by
  /// the sleep-set dedup; capped counts those dropped by
  /// --max-interleavings.
  std::size_t interleavings_enqueued = 0;
  std::size_t interleavings_run = 0;
  std::size_t interleavings_pruned = 0;
  std::size_t interleavings_capped = 0;
};

struct CampaignResult : CampaignCounters {
  std::vector<IterationRecord> iterations;
  std::vector<BugRecord> bugs;
  /// Where the uncovered branches live (function-level breakdown).
  std::vector<FunctionCoverage> function_coverage;

  std::size_t covered_branches = 0;
  std::size_t reachable_branches = 0;
  std::size_t total_branches = 0;
  double coverage_rate = 0.0;

  /// True when the campaign continued a checkpointed session.
  bool resumed = false;
  std::size_t workers_used = 1;
  /// Always zero: epochs give workers no shared frontier to claim arms
  /// from or to drop stale candidates against.  Kept for perfbench, which
  /// still reads them.
  std::size_t frontier_dedup_skips = 0;
  std::size_t stale_candidate_drops = 0;
  /// Solver memoization totals (zero when the cache is disabled).
  std::size_t solver_cache_hits = 0;
  std::size_t solver_cache_misses = 0;
  /// Exact matching-bug verdicts observed across iterations.
  std::size_t deadlocks_found = 0;
  std::size_t orphan_messages_found = 0;
  double total_seconds = 0.0;
  /// Sums of the per-iteration phase timings.  exec_seconds is each
  /// worker's launch-phase wall clock, so under --workers > 1 this SUM can
  /// exceed total_seconds (workers overlap); solve_seconds is per-worker
  /// THREAD CPU time and never double-counts (see DESIGN.md).
  double total_exec_seconds = 0.0;
  double total_solve_seconds = 0.0;
  /// End-of-campaign search-stall diagnosis (obs/diagnosis.h): why progress
  /// stopped, computed purely from the records above so obs-on and obs-off
  /// builds agree.  "progressing" means coverage was still being earned
  /// when the budget ran out.
  std::string stall_kind = "progressing";
  std::string stall_detail;
  double stalled_seconds = 0.0;
};

class Campaign {
 public:
  Campaign(const TargetInfo& target, CampaignOptions options);

  /// Runs the full campaign to its iteration/time budget: `workers`
  /// execute->solve loops in bulk-synchronous epochs whose results one
  /// thread merges in ordinal order.  One worker (the default) runs on the
  /// calling thread.
  [[nodiscard]] CampaignResult run();

 private:
  TargetInfo target_;  // by value: callers may pass temporaries
  CampaignOptions options_;
};

}  // namespace compi
