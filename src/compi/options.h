// Campaign configuration: everything §VI's experiment setup varies.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "minimpi/fault_plan.h"

namespace compi {

class WorkSource;

/// Which search strategy drives constraint negation (paper §II-B).
enum class SearchKind : std::uint8_t {
  kBoundedDfs,     // COMPI's default (two-phase: DFS then BoundedDFS)
  kDfs,            // unbounded depth-first
  kRandomBranch,   // negate a random branch of the last path
  kUniformRandom,  // uniform random path sampling
  kCfg,            // CFG-distance scoring
  kGenerational,   // SAGE-style generational search (extension, not in
                   // the paper: expand every flip of each run, prioritize
                   // runs that found new coverage)
};

[[nodiscard]] const char* to_string(SearchKind k);

struct CampaignOptions {
  std::uint64_t seed = 1;

  /// Iteration budget (number of target executions).
  int iterations = 500;
  /// Wall-clock budget in seconds; 0 = iterations only.  Used by the
  /// fixed-time-budget comparisons of §VI-D/E.
  double time_budget_seconds = 0.0;

  // ---- test setup (paper "Experiment setup") ----
  int initial_nprocs = 8;
  int initial_focus = 0;
  /// Cap on the number of processes (input capping applied to sw, §IV-A).
  int max_procs = 16;

  // ---- search (§II-B) ----
  SearchKind search = SearchKind::kBoundedDfs;
  /// Pure-DFS phase length before switching to BoundedDFS (the "x" of the
  /// two-phase scheme; 50 for SUSY-HMC, 1000 for HPL/IMB in the paper).
  int dfs_phase_iterations = 50;
  /// Explicit depth bound; 0 derives it from the observed maximum
  /// constraint-set size with `bound_slack` headroom.
  int depth_bound = 0;
  double bound_slack = 1.2;

  // ---- cost-control features ----
  bool reduction = true;       // constraint-set reduction (§IV-C)
  bool one_way = false;        // one-way instrumentation ablation (§IV-B)
  bool framework = true;       // false = No_Fwk ablation (§VI-E)
  /// Translate changed rc values through the runtime local->global mapping
  /// (§III-C).  false = ablation: local ranks read as global ranks.
  bool conflict_resolution = true;

  // ---- parallelism (the --workers engine) ----
  /// Campaign workers.  1 (the default) runs the single worker on the
  /// calling thread: the serial campaign, searching with `seed` itself.
  /// N > 1 runs bulk-synchronous epochs: each worker runs its ordinals of
  /// the epoch against the campaign as of the epoch's start plus its own
  /// finds, and one thread merges their results in ordinal order at the
  /// barrier, so the session depends only on the seed and options.
  int workers = 1;
  /// Solver memoization capacity in entries (solver/cache.h): definitive
  /// incremental-solve answers keyed on the normalized dependency slice,
  /// one cache per worker, kept across restarts.  0 disables the cache
  /// (the default, keeping sessions bit-identical in their solver_nodes
  /// accounting).
  int solver_cache_entries = 0;

  // ---- wildcard-matching exploration (minimpi/world.h) ----
  /// Enumerate alternative wildcard-receive matchings as a second frontier
  /// dimension: each observed decision point with >1 feasible senders
  /// forks a replayable interleaving (prefix choices pinned, one choice
  /// flipped), deduplicated DPOR/sleep-set style.  Every test records its
  /// decisions and gets MiniMPI's exact deadlock / orphan-message verdicts
  /// either way; this only decides whether alternatives are enqueued.  Off
  /// by default: a target without alternative matchings gives the same
  /// session with it on or off.
  bool explore_matchings = false;
  /// Cap on distinct interleavings enqueued per campaign (0 = unlimited).
  int max_interleavings = 64;

  // ---- runtime limits ----
  std::int64_t step_budget = 2'000'000;
  /// Per-test timeout on the job's virtual clock (minimpi/world.h).
  std::chrono::milliseconds test_timeout{30'000};
  std::int64_t solver_node_budget = 200'000;

  /// Consecutive solver failures / strategy exhaustion before restarting
  /// with fresh random inputs (paper §VI: "we just redo the testing").
  int restart_after_failures = 25;

  // ---- robustness (fault injection, retries, checkpointing) ----
  /// Deterministic fault injection applied to every launched test (chaos
  /// testing of the campaign itself).  Disabled by default; the per-test
  /// chaos seed is re-mixed from `chaos.seed` and the iteration number.
  minimpi::FaultPlan chaos;
  /// Transient-failure retries (solver node-budget exhaustion, per-test
  /// timeout) before the failure counts toward `restart_after_failures`.
  /// A solver retry doubles the node budget; a timeout retry doubles the
  /// step budget and re-mixes the chaos seed.  None waits: a run depends
  /// only on its seed and options, so a pause could not change it.
  int retry_max = 2;
  /// Re-execute each newly discovered bug once (same inputs, chaos off) and
  /// mark it flaky when the failure does not reproduce.
  bool confirm_bugs = true;
  /// Append a snapshot to <log_dir>/session.log every this-many iterations
  /// (and on completion); 0 disables.  Only active when `log_dir` is set.
  int checkpoint_interval = 25;
  /// Continue a previous session from `log_dir`'s checkpoint instead of
  /// starting fresh (falls back to a fresh run when none is readable).
  bool resume = false;
  /// Testing hook: stop abruptly after this many iterations of THIS process
  /// (writing a final checkpoint but no summary), simulating a kill.  Under
  /// --workers the stop lands on the first epoch boundary at or past it
  /// (serial epochs are one iteration long).  0 = run to the configured
  /// budget.
  int halt_after_iterations = 0;
  /// Run every test outside the tester's process, in the fork server's
  /// persistent executor (sandbox/fork_server.h): a target that really
  /// segfaults or spins in an uninstrumented loop is contained and
  /// recorded as a bug instead of taking the campaign down.  Falls back
  /// to the in-process launcher on non-POSIX builds.
  bool isolate = false;
  /// Wall-clock hang timeout for the sandboxed child in milliseconds;
  /// 0 derives 2x `test_timeout` + 2 s so the in-child cooperative watchdog
  /// always reports simulated hangs first.
  int hang_timeout_ms = 0;
  /// RLIMIT_AS for the sandboxed child in MiB; 0 = inherit the parent's
  /// limit.  Ignored in ASan builds (the shadow needs the address space).
  int child_mem_mb = 0;
  /// Stop the campaign once this many distinct bugs have been recorded
  /// (0 = no budget).  Unlike the halt hook this is a graceful early
  /// termination: summary, ledger, and observability exports all run.
  int max_bugs = 0;

  /// When non-empty, the campaign writes a file-based session under this
  /// directory: per-iteration rank logs (the files the instrumented
  /// processes write in the paper's tool), iterations.csv, and bugs.txt.
  std::string log_dir;
  /// Rank-log retention for the session: the logs of every bug's first
  /// iteration plus those of the last K iterations (written at campaign
  /// end).  -1 keeps every iteration's logs; 0 keeps none.
  int keep_rank_logs = 16;

  // ---- observability ----
  /// Record scoped spans/instants into the trace ring and export them as
  /// Chrome trace_event JSON (<log_dir>/trace.json, loadable in
  /// chrome://tracing or Perfetto) at every checkpoint and at campaign end.
  /// Off-path cost when disabled: one relaxed atomic load per span site.
  bool trace = false;
  /// Export the metrics registry in Prometheus text exposition format
  /// (<log_dir>/metrics.prom) at every checkpoint and at campaign end.
  bool metrics = false;
  /// Trace ring-buffer capacity in KiB (lossy flight recorder: oldest
  /// events are overwritten once full).
  int trace_buffer_kb = 256;
  /// Write <log_dir>/journal.jsonl: one JSON event per iteration, per
  /// solve attempt, per retry/chaos arming, and per sandbox kill
  /// (obs/journal.h).  Requires `log_dir`; survives --resume with its
  /// iteration events aligned to iterations.csv.
  bool journal = false;
  /// When non-empty, atomically rewrite this file each iteration with a
  /// small JSON heartbeat (iteration, covered branches, bugs, elapsed
  /// seconds, world size, focus) for external monitoring.
  std::string status_file;
  /// Embedded control-plane HTTP server (serve/control_plane.h): -1 (the
  /// default) = off, 0 = bind an ephemeral loopback port, else bind this
  /// port.  Serves /metrics, /status, /events (SSE journal tail), and
  /// /explain while the campaign runs.  The bound port is published in the
  /// status heartbeat (`serve_port`), which defaults to
  /// <log_dir>/status.json when serving without --status-file.
  int serve_port = -1;
  /// Distributed work intake (work_source.h): non-owning; null (the
  /// default) leaves the engines byte-identical to standalone behaviour.
  /// Set by the --connect shard mode to a ShardLink speaking the
  /// coordinator protocol.
  WorkSource* work_source = nullptr;
  /// Seconds without new coverage before the stall-diagnosis engine
  /// (obs/diagnosis.h) classifies the campaign as stalled rather than
  /// progressing.  Tests and deliberately-short campaigns lower it.
  double stall_window_seconds = 20.0;
};

}  // namespace compi
