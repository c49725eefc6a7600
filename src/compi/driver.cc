// The campaign engine (paper §II-A, Fig. 3).
//
// A campaign is `--workers` N workers, each running the full
// execute -> observe -> solve loop, merging into ONE campaign: a shared
// CoverageTracker, attribution ledger, bug list, iteration log,
// interleaving frontier and event journal.  The serial campaign (N = 1, the
// default) is one worker on the calling thread; N > 1 runs each worker on
// its own thread.  Each worker owns its private search line — strategy
// instance, test plan, solver, Framework and Executor — so target execution
// and constraint solving, where the time goes, run outside the campaign
// lock.
//
// Locking: the shared state is guarded by one campaign mutex (`mu`), taken
// only when another thread can observe that state — a second worker, or
// the control plane's /explain endpoint under --serve.  A lone unserved
// worker never locks.
//
// Iteration ordinals are dealt from one atomic ticket counter, so the
// campaign executes exactly the configured budget regardless of how the
// work interleaves.  Rows land in iterations.csv in completion order
// (each tagged with its worker) and are re-sorted by ordinal for the
// final summary rewrite.
//
// The negation frontier is deduplicated across workers: before solving a
// candidate that steers toward an uncovered untaken arm, a worker claims
// the arm in the shared in-flight set — a second worker proposing the
// same arm skips it (frontier_dedup_skips) instead of burning solver
// budget on a duplicate.  A claim whose arm another worker covered while
// the solve ran is dropped before its model is used
// (stale_candidate_drops).  Candidates whose target is ALREADY covered
// pass through unclaimed: those are DFS backtracking moves, not frontier
// work, and filtering them would break search completeness.  A single
// worker's claims never collide, so N = 1 is the classic serial search.
//
// Timing: exec_seconds is each worker's launch-phase wall clock;
// solve_seconds is the worker's THREAD CPU time, which sums correctly
// across overlapping workers (see obs/phase_clock.h and DESIGN.md).
//
// Checkpointing: the snapshot embeds one WorkerCursor per worker (plan +
// strategy state) plus the length of the contiguous completed-iteration
// prefix, whose rows it rebuilds from iterations.csv; resume requires the
// same seed AND the same --workers, otherwise the campaign starts fresh
// rather than remapping in-flight search lines.
#include "compi/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "compi/checkpoint.h"
#include "compi/driver_internal.h"
#include "compi/executor.h"
#include "compi/explain.h"
#include "compi/interleaving.h"
#include "compi/ledger.h"
#include "compi/session.h"
#include "compi/work_source.h"
#include "minimpi/launcher.h"
#include "obs/diagnosis.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/phase_clock.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "serve/control_plane.h"
#include "solver/cache.h"
#include "solver/solver.h"

namespace compi {

using detail::bug_signature;
using detail::mix_seed;

namespace {

/// One worker's private search line: its planned next test, its strategy,
/// and the backtracking flags between iterations.
struct WorkerState {
  TestPlan plan;
  std::unique_ptr<SearchStrategy> strategy;
  StrategyConfig scfg;
  std::optional<std::size_t> pending_depth;
  bool next_is_restart = true;
  bool bounded_phase = false;
  int failures = 0;
  int consecutive_replans = 0;
};

ckpt::WorkerCursor cursor_of(const WorkerState& ws) {
  ckpt::WorkerCursor cur;
  cur.plan_inputs = ws.plan.inputs;
  cur.plan_nprocs = ws.plan.nprocs;
  cur.plan_focus = ws.plan.focus;
  cur.next_is_restart = ws.next_is_restart;
  cur.pending_depth = ws.pending_depth;
  cur.failures = ws.failures;
  cur.consecutive_replans = ws.consecutive_replans;
  cur.bounded_phase = ws.bounded_phase;
  cur.strategy_name = ws.strategy->name();
  std::ostringstream blob;
  ws.strategy->save_state(blob);
  cur.strategy_state = blob.str();
  return cur;
}

}  // namespace

Campaign::Campaign(const TargetInfo& target, CampaignOptions options)
    : target_(target), options_(std::move(options)) {}

CampaignResult Campaign::run() {
  using Clock = std::chrono::steady_clock;
  const int workers = std::max(options_.workers, 1);

  // ---- observability setup ----
  // Worker w owns trace tracks [w*(max_procs+1), (w+1)*(max_procs+1)): its
  // driver loop on the base track, its MiniMPI rank fibers above it.
  obs::set_thread_track(0);
  if (options_.trace) {
    obs::tracer().configure(options_.trace_buffer_kb);
    obs::tracer().set_enabled(true);
  }
  auto& reg = obs::registry();
  obs::Counter& m_iterations =
      reg.counter("compi_iterations_total", "Campaign iterations executed");
  obs::Counter& m_restarts =
      reg.counter("compi_restarts_total", "Restarts with fresh random inputs");
  obs::Counter& m_retries = reg.counter(
      "compi_transient_retries_total",
      "Transient-failure retries (timeouts, solver budget exhaustion)");
  obs::Counter& m_bugs =
      reg.counter("compi_bugs_total", "Distinct bugs discovered");
  obs::Gauge& m_covered =
      reg.gauge("compi_covered_branches", "Cumulative covered branches");
  obs::Histogram& m_exec_us = reg.histogram(
      "compi_exec_us", "Per-iteration target execution time (us)");
  obs::Histogram& m_solve_us = reg.histogram(
      "compi_solve_us", "Per-iteration constraint solving time (us)");
  obs::Histogram& m_solver_nodes = reg.histogram(
      "compi_solver_nodes", "Per-iteration solver search nodes expanded");
  obs::Counter& m_sandbox_signal_kills = reg.counter(
      "compi_sandbox_signal_kills_total",
      "Sandboxed children killed by a real signal (SIGSEGV, SIGABRT, ...)");
  obs::Counter& m_sandbox_hang_kills = reg.counter(
      "compi_sandbox_hang_kills_total",
      "Sandboxed children SIGKILLed by the hang watchdog");
  obs::Counter& m_sandbox_harvest_bytes = reg.counter(
      "compi_sandbox_harvest_bytes_total",
      "Bytes salvaged from sandboxed children (pipe stream + coverage map)");
  obs::Counter& m_warm_spawns = reg.counter(
      "compi_warm_spawns_total",
      "Iterations forked from the fork server's warm snapshot");
  obs::Counter& m_cold_forks = reg.counter(
      "compi_cold_forks_total",
      "Iterations that fell back to a cold per-iteration fork");
  obs::Counter& m_batch_runs = reg.counter(
      "compi_batch_runs_total",
      "Iterations executed in-process by the --batch-reset fast path");
  obs::Counter& m_server_restarts = reg.counter(
      "compi_fork_server_restarts_total",
      "Fork-server deaths absorbed by a restart");
  obs::Histogram& m_spawn_us = reg.histogram(
      "compi_spawn_us", "Warm-spawn latency, spawn frame to reap (us)");
  obs::Counter& m_cache_hits = reg.counter(
      "compi_solver_cache_hits_total",
      "Solver memoization cache hits (query answered without searching)");
  obs::Counter& m_cache_misses = reg.counter(
      "compi_solver_cache_misses_total",
      "Solver memoization cache misses (full backtracking search ran)");
  obs::Counter& m_cache_evictions = reg.counter(
      "compi_solver_cache_evictions_total",
      "Solver memoization cache LRU evictions");
  obs::Counter& m_dedup_skips = reg.counter(
      "compi_frontier_dedup_skips_total",
      "Candidates skipped because another worker claimed the same arm");
  obs::Counter& m_stale_drops = reg.counter(
      "compi_stale_candidate_drops_total",
      "Claimed candidates dropped: arm covered while the solve ran");
  obs::Counter& m_interleavings = reg.counter(
      "compi_interleavings_total",
      "Reordered wildcard matchings replayed (--explore-matchings)");
  obs::Gauge& m_frontier_depth = reg.gauge(
      "compi_frontier_depth",
      "Unexplored negation candidates currently queued by the search");
  obs::Gauge& m_interleavings_pending = reg.gauge(
      "compi_interleavings_pending",
      "Reordered wildcard matchings queued and awaiting replay");
  // Registered adjacently so the Prometheus writer emits one HELP/TYPE
  // pair for the whole compi_worker_last_progress_seconds family.
  std::vector<obs::Gauge*> m_worker_progress;
  m_worker_progress.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    m_worker_progress.push_back(&reg.gauge(
        "compi_worker_last_progress_seconds{worker=\"" + std::to_string(w) +
            "\"}",
        "Campaign-relative time of each worker's last completed iteration"));
  }

  // Solver memoization (--solver-cache=N entries; 0 = off, the default):
  // one cache shared by every worker — cross-worker hits are the point
  // (workers flip neighbouring branches of the same paths).  Off means a
  // plain nullptr to solve_incremental, so it costs nothing.
  std::optional<solver::SolveCache> solve_cache;
  if (options_.solver_cache_entries > 0) {
    solve_cache.emplace(
        static_cast<std::size_t>(options_.solver_cache_entries));
  }
  solver::SolveCache* cache = solve_cache ? &*solve_cache : nullptr;
  // The registry's counters are cumulative across campaigns in one process
  // (bench loops); sync by delta so each export reflects this cache's
  // totals without double counting.
  const auto sync_cache_metrics = [&] {
    if (cache == nullptr) return;
    m_cache_hits.inc(static_cast<std::int64_t>(cache->hits()) -
                     m_cache_hits.value());
    m_cache_misses.inc(static_cast<std::int64_t>(cache->misses()) -
                       m_cache_misses.value());
    m_cache_evictions.inc(static_cast<std::int64_t>(cache->evictions()) -
                          m_cache_evictions.value());
  };

  // Dumps metrics.prom / trace.json next to the session (or into the
  // working directory when no log dir is configured).  Called at every
  // checkpoint and at campaign end, so a killed campaign still leaves
  // observability artifacts behind.
  const auto export_obs = [&] {
    namespace fs = std::filesystem;
    const fs::path base =
        options_.log_dir.empty() ? fs::path(".") : fs::path(options_.log_dir);
    sync_cache_metrics();
    if (options_.metrics) {
      std::ofstream out(base / "metrics.prom");
      reg.write_prometheus(out);
    }
    if (options_.trace) {
      std::ofstream out(base / "trace.json");
      obs::tracer().write_chrome_json(out);
    }
  };

  obs::ObsSpan campaign_span(obs::Cat::kDriver, "campaign");
  const auto campaign_start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - campaign_start)
        .count();
  };

  CampaignResult result;
  result.workers_used = static_cast<std::size_t>(workers);
  rt::VarRegistry registry;
  CoverageTracker coverage(*target_.table);
  CoverageLedger ledger(*target_.table);
  obs::Journal journal;
  std::optional<SessionWriter> session;
  if (!options_.log_dir.empty()) {
    session.emplace(options_.log_dir, options_.keep_rank_logs);
  }

  // ---- live status board (--status-file heartbeat + GET /status) ----
  // The board is the single writer both the file heartbeat and the control
  // plane render from; when serving without an explicit --status-file the
  // heartbeat lands in the session directory so `compi top <file>` and the
  // CI smoke test can discover the ephemeral port.
  const bool serving = options_.serve_port >= 0;
  std::string status_path = options_.status_file;
  if (serving && status_path.empty() && session) {
    status_path = (session->dir() / "status.json").string();
  }
  std::shared_ptr<obs::StatusBoard> board;
  if (serving || !status_path.empty()) {
    board = std::make_shared<obs::StatusBoard>(workers, options_.iterations);
    board->set_campaign(options_.initial_nprocs, options_.initial_focus);
  }

  // ---- the shared campaign state ----
  // Guarded by `mu` whenever a second thread can reach it: another worker,
  // or the control plane's /explain handler.  lock_state() is the only way
  // the loop takes `mu`, and it is a no-op for one unserved worker.
  std::mutex mu;
  const bool shared = workers > 1 || serving;
  const auto lock_state = [&] {
    return shared ? std::unique_lock<std::mutex>(mu)
                  : std::unique_lock<std::mutex>();
  };
  std::vector<std::string> known_hangs;  // signatures proven to really hang
  /// Shared interleaving frontier (--explore-matchings): any worker's run
  /// forks alternatives, any worker replays them.
  InterleavingFrontier interleavings;
  /// Untaken arms currently being solved for, keyed by BranchId: the
  /// cross-worker frontier deduplication set.
  std::unordered_set<sym::BranchId> in_flight;
  /// Ticket counter: each worker iteration consumes one ordinal.
  std::atomic<int> next_ticket{0};
  std::atomic<bool> stop{false};
  bool halted = false;
  int executed = 0;  // iterations run by THIS process (halt hook)

  // Running totals for the telemetry piggyback (work_source.h) and the
  // stall-diagnosis engine: cumulative solver outcome mix and phase time.
  // Atomics, not `mu` fields: workers bump them from the solve loop, which
  // deliberately holds no lock.
  std::atomic<std::int64_t> tele_sat{0}, tele_unsat{0}, tele_budget{0};
  std::atomic<std::int64_t> tele_exec_us{0}, tele_solve_us{0};
  /// Live frontier depth: the last planned constraint set's size, or 0 the
  /// moment a worker's strategy ran dry (the frontier-starved signal).
  std::atomic<std::int64_t> tele_frontier{-1};

  // Stall diagnosis (obs/diagnosis.h): fed once per iteration, journals
  // verdict transitions, and leaves its final verdict on the result.  Pure
  // computation over local state — obs-off and serve-off sessions see the
  // identical artifact bytes they always did.
  obs::DiagnosisEngine diagnosis_engine(&journal);
  const auto diagnosis_input = [&] {  // callers hold the state lock
    obs::DiagnosisInput in;
    in.elapsed_seconds = elapsed();
    in.frontier_depth = tele_frontier.load();
    in.interleavings_pending =
        static_cast<std::int64_t>(interleavings.queue.size());
    in.solver_sat = tele_sat.load();
    in.solver_unsat = tele_unsat.load();
    in.solver_budget = tele_budget.load();
    in.plateau_window_seconds = options_.stall_window_seconds;
    return in;
  };
  /// Completion tracking for checkpoint boundaries: done[i] marks ordinal
  /// i fully recorded; `prefix` is the first not-yet-complete ordinal, so
  /// every iteration below it is safely checkpointable.
  std::vector<char> done(static_cast<std::size_t>(
                             std::max(options_.iterations, 0)),
                         0);
  int prefix = 0;
  /// Per-worker cursors as of each worker's last completed iteration.  A
  /// worker can snapshot only its own strategy (the others are mid-run),
  /// so with N > 1 every worker refreshes its cursor each iteration; a
  /// lone worker refreshes only right before it snapshots.
  std::vector<ckpt::WorkerCursor> cursors(static_cast<std::size_t>(workers));
  const bool checkpointing =
      session && (options_.checkpoint_interval > 0 ||
                  options_.halt_after_iterations > 0);

  // Two-phase search (paper §II-B): pure DFS for the first
  // dfs_phase_iterations, then BoundedDFS with a bound derived from the
  // longest observed constraint set.  Other strategies run single-phase.
  const bool two_phase = options_.search == SearchKind::kBoundedDfs;
  std::vector<WorkerState> wstate(static_cast<std::size_t>(workers));
  const auto make_worker_state = [&](int w, bool bounded, std::size_t bound) {
    StrategyConfig scfg;
    if (two_phase) {
      scfg.kind = bounded ? SearchKind::kBoundedDfs : SearchKind::kDfs;
    } else {
      scfg.kind = options_.search;
    }
    scfg.bound = bound;
    // A lone worker searches with the campaign seed itself; N workers get
    // decorrelated seeds, so they explore N diverging search lines instead
    // of racing down the same one.
    scfg.seed = workers == 1
                    ? options_.seed
                    : mix_seed(options_.seed,
                               0x5eed0000ULL + static_cast<std::uint64_t>(w));
    scfg.table = target_.table;
    scfg.coverage = &coverage;
    WorkerState ws;
    ws.scfg = scfg;
    ws.strategy = make_strategy(scfg);
    ws.bounded_phase = bounded;
    ws.plan.nprocs = options_.initial_nprocs;
    ws.plan.focus = options_.initial_focus;
    return ws;
  };
  for (int w = 0; w < workers; ++w) {
    wstate[static_cast<std::size_t>(w)] =
        make_worker_state(w, false, static_cast<std::size_t>(-1));
  }

  // ---- resume a checkpointed session (crash recovery) ----
  if (options_.resume && session) {
    std::optional<ckpt::CampaignCheckpoint> c =
        read_checkpoint(options_.log_dir);
    if (c && c->seed == options_.seed &&
        c->worker_cursors.size() == static_cast<std::size_t>(workers)) {
      // Validate every cursor's strategy blob BEFORE touching shared
      // state, so a half-readable snapshot degrades to a clean fresh start.
      std::vector<WorkerState> restored;
      restored.reserve(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        const ckpt::WorkerCursor& cur =
            c->worker_cursors[static_cast<std::size_t>(w)];
        WorkerState ws = make_worker_state(
            w, two_phase && cur.bounded_phase, c->depth_bound_used);
        std::istringstream blob(cur.strategy_state);
        if (cur.strategy_name != ws.strategy->name() ||
            !ws.strategy->load_state(blob)) {
          break;
        }
        ws.plan.inputs = cur.plan_inputs;
        ws.plan.nprocs = cur.plan_nprocs;
        ws.plan.focus = cur.plan_focus;
        ws.next_is_restart = cur.next_is_restart;
        ws.pending_depth = cur.pending_depth;
        ws.failures = cur.failures;
        ws.consecutive_replans = cur.consecutive_replans;
        restored.push_back(std::move(ws));
      }
      if (restored.size() == static_cast<std::size_t>(workers)) {
        wstate = std::move(restored);
        for (const rt::VarMeta& meta : c->registry) {
          registry.intern(meta.key, meta.kind, meta.domain, meta.cap,
                          meta.comm_index);
        }
        rt::CoverageBitmap bitmap(target_.table->num_branches());
        for (sym::BranchId b : c->covered) bitmap.mark(b);
        coverage.merge(bitmap);
        result.iterations = std::move(c->iterations);
        result.bugs = std::move(c->bugs);
        result.restarts = c->restarts;
        result.max_constraint_set = c->max_constraint_set;
        result.depth_bound_used = c->depth_bound_used;
        result.transient_retries = c->transient_retries;
        result.focus_replans = c->focus_replans;
        result.sandbox_runs = c->sandbox_runs;
        result.sandbox_signal_kills = c->sandbox_signal_kills;
        result.sandbox_hang_kills = c->sandbox_hang_kills;
        result.sandbox_harvest_bytes = c->sandbox_harvest_bytes;
        result.warm_spawns = c->warm_spawns;
        result.cold_forks = c->cold_forks;
        result.fork_server_restarts = c->fork_server_restarts;
        result.batch_runs = c->batch_runs;
        result.resumed = true;
        known_hangs = std::move(c->known_hang_signatures);
        interleavings.queue.assign(c->pending_interleavings.begin(),
                                   c->pending_interleavings.end());
        interleavings.seen.insert(c->interleaving_seen.begin(),
                                  c->interleaving_seen.end());
        interleavings.next_id = c->next_interleaving_id;
        interleavings.enqueued = c->interleavings_enqueued;
        interleavings.run_count = c->interleavings_run;
        interleavings.pruned = c->interleavings_pruned;
        interleavings.capped = c->interleavings_capped;
        next_ticket.store(c->next_iteration);
        prefix = c->next_iteration;
        for (int i = 0; i < c->next_iteration &&
                        i < static_cast<int>(done.size());
             ++i) {
          done[static_cast<std::size_t>(i)] = 1;
        }
        if (!c->ledger_state.empty()) {
          std::istringstream ledger_blob(c->ledger_state);
          // A failed read keeps the fresh ledger: attribution restarts but
          // the campaign itself is unaffected.
          (void)ledger.read(ledger_blob);
        }
      }
    }
  }
  const int start_iter = next_ticket.load();

  // Seed every cursor from its worker's initial (or restored) state, so a
  // checkpoint taken before worker w completes an iteration still embeds a
  // loadable cursor for it.
  if (checkpointing) {
    for (int w = 0; w < workers; ++w) {
      cursors[static_cast<std::size_t>(w)] =
          cursor_of(wstate[static_cast<std::size_t>(w)]);
    }
  }

  // Open iterations.csv for incremental appends (header + any restored
  // prefix) so a crash mid-campaign loses at most the in-flight rows.
  if (session) session->begin_iterations(result.iterations);

  // Open the event journal alongside it.  On resume the journal keeps only
  // events below the checkpoint boundary, so its iteration events stay
  // aligned with the restored iterations.csv prefix.
  if (options_.journal && session) {
    const std::filesystem::path journal_path =
        session->dir() / "journal.jsonl";
    if (result.resumed) {
      (void)journal.open_resume(journal_path, start_iter);
    } else {
      (void)journal.open(journal_path);
    }
  }

  // Whatever way the campaign ends — budget, bug-budget exhaustion, a
  // thrown fatal error — the journal tail and the metrics/trace exports
  // must land on disk.  The simulated-kill path is the one exception (a
  // real SIGKILL flushes nothing); it relies on its final checkpoint's
  // export instead, which this guard repeats harmlessly.
  struct ExportGuard {
    std::function<void()> fn;
    ~ExportGuard() { fn(); }
  } export_guard{[&] {
    journal.close();
    export_obs();
  }};

  // The control plane is declared AFTER the export guard on purpose:
  // reverse destruction stops the server thread (and with it every live
  // endpoint) before the journal closes and the final export runs — on
  // every exit path, including thrown fatal errors.  The happy path also
  // stops it explicitly once the workers are done, before finalize
  // mutates the shared state without the lock.
  serve::ControlPlane control_plane;
  if (serving && board != nullptr) {
    serve::ControlPlaneConfig cp;
    cp.port = options_.serve_port;
    cp.registry = &reg;
    cp.journal = &journal;
    cp.status = [board] { return board->snapshot(); };
    cp.explain = [&, board] {
      // /explain renders a bounded summary from the live ledger under the
      // campaign mutex — the lock the workers' bookkeeping sections take.
      std::lock_guard<std::mutex> lock(mu);
      std::vector<std::string> lines;
      (void)journal.tap_since(0, lines);
      return explain_live(ledger, *target_.table, result.iterations, lines);
    };
    // /healthz: live while a worker completed an iteration recently.  The
    // threshold scales with the hang timeout — one test may legitimately
    // sit for hang_timeout_ms (times retries) before the sandbox reaps it,
    // so only a multiple of that is a genuine stall.
    const double stall_threshold = std::max(
        30.0, 3.0 * static_cast<double>(options_.hang_timeout_ms) / 1000.0);
    cp.healthy = [board, stall_threshold, &elapsed] {
      const obs::StatusSnapshot s = board->snapshot();
      double last = 0.0;
      bool active = false;
      for (const obs::WorkerStatus& w : s.worker_status) {
        if (w.phase == obs::WorkerPhase::kDone) continue;
        active = true;
        last = std::max(last, w.last_progress_seconds);
      }
      const double stall = elapsed() - last;
      std::ostringstream detail;
      if (!active || stall <= stall_threshold) {
        detail << "progressing: iteration " << s.iteration << ", "
               << s.covered_branches << " branches";
        return std::make_pair(true, detail.str());
      }
      detail << "stalled: no progress for " << static_cast<int>(stall)
             << "s (threshold " << static_cast<int>(stall_threshold) << "s)";
      if (!s.diagnosis_detail.empty()) {
        detail << "; " << s.diagnosis_detail;
      }
      return std::make_pair(false, detail.str());
    };
    if (control_plane.start(std::move(cp))) {
      board->set_serve_port(control_plane.port());
      // Publish the bound port immediately (iteration -1): with --serve=0
      // this is how clients discover the ephemeral port.
      if (!status_path.empty()) {
        (void)obs::write_status_file(
            status_path, obs::render_status_json(board->snapshot()));
      }
    }
  }

  const auto backoff = [&](int attempt) {
    if (options_.retry_backoff_ms <= 0) return;
    const int ms = std::min(options_.retry_backoff_ms << attempt, 1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };

  // Bug-budget exhaustion (--max-bugs) ends the campaign gracefully: the
  // workers stop, and summary/ledger/obs exports below all still run.
  const auto bug_budget_hit = [&] {  // callers hold the state lock
    return options_.max_bugs > 0 &&
           result.bugs.size() >= static_cast<std::size_t>(options_.max_bugs);
  };

  // Snapshot under the state lock.  Only the contiguous completed prefix
  // is recorded as "done": ordinals at or past `prefix` (completed out of
  // order, or in flight) are re-run on resume — coverage merging is
  // idempotent, so the only cost is repeated work, never corruption.  The
  // snapshot holds no history: it spans the first `prefix` iterations.csv
  // rows, which the session flushes before it.  The final snapshot, taken
  // after summary.txt, spans every row and points at the budget, so a
  // resume of a finished campaign runs nothing; it skips the fsyncs, as
  // the summary files it follows have none either.
  const auto save_checkpoint_locked = [&](bool final_snapshot) {
    if (!session) return;
    obs::ObsSpan span(obs::Cat::kCheckpoint, "save_checkpoint", "iteration",
                      prefix);
    ckpt::CampaignCheckpoint c;
    c.seed = options_.seed;
    c.next_iteration =
        final_snapshot ? std::max(prefix, options_.iterations) : prefix;
    c.finished = final_snapshot;
    c.worker_cursors = cursors;
    c.restarts = result.restarts;
    c.max_constraint_set = result.max_constraint_set;
    c.depth_bound_used = result.depth_bound_used;
    c.transient_retries = result.transient_retries;
    c.focus_replans = result.focus_replans;
    c.sandbox_runs = result.sandbox_runs;
    c.sandbox_signal_kills = result.sandbox_signal_kills;
    c.sandbox_hang_kills = result.sandbox_hang_kills;
    c.sandbox_harvest_bytes = result.sandbox_harvest_bytes;
    c.warm_spawns = result.warm_spawns;
    c.cold_forks = result.cold_forks;
    c.fork_server_restarts = result.fork_server_restarts;
    c.batch_runs = result.batch_runs;
    // The history rows, for the row count and the coverage timeline; N
    // workers also complete ordinals past the prefix, out of order.
    std::vector<IterationRecord> rows;
    for (const IterationRecord& r : result.iterations) {
      if (r.iteration < c.next_iteration) rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end(),
              [](const IterationRecord& a, const IterationRecord& b) {
                return a.iteration < b.iteration;
              });
    c.history_rows = rows.size();
    c.bugs = result.bugs;
    c.covered = coverage.bitmap().covered_ids();
    c.registry = registry.all();
    c.known_hang_signatures = known_hangs;
    c.pending_interleavings.assign(interleavings.queue.begin(),
                                   interleavings.queue.end());
    c.interleaving_seen.assign(interleavings.seen.begin(),
                               interleavings.seen.end());
    // Hash-set iteration order is arbitrary: sort so identical campaigns
    // write byte-identical snapshots.
    std::sort(c.interleaving_seen.begin(), c.interleaving_seen.end());
    c.next_interleaving_id = interleavings.next_id;
    c.interleavings_enqueued = interleavings.enqueued;
    c.interleavings_run = interleavings.run_count;
    c.interleavings_pruned = interleavings.pruned;
    c.interleavings_capped = interleavings.capped;
    std::ostringstream ledger_blob;
    ledger.write(ledger_blob);
    c.ledger_state = ledger_blob.str();
    session->write_checkpoint(c, /*sync=*/!final_snapshot);
    session->write_ledger(ledger, *target_.table);
    session->write_coverage_timeline(rows);
    journal.flush();
    export_obs();
  };

  // One "iteration" journal event per iterations.csv row plus the
  // --status-file heartbeat, rewritten via tmp + rename so a monitoring
  // reader never sees a torn file.  Callers hold the state lock.
  const auto note_iteration = [&](const IterationRecord& rec,
                                  const std::map<std::string, std::int64_t>&
                                      named_inputs,
                                  std::size_t new_branches) {
    obs::JournalEvent(journal, "iteration", rec.iteration)
        .num("nprocs", rec.nprocs)
        .num("focus", rec.focus)
        .str("outcome", rt::to_string(rec.outcome))
        .boolean("restart", rec.restart)
        .num("constraint_set_size",
             static_cast<std::int64_t>(rec.constraint_set_size))
        .num("covered_branches",
             static_cast<std::int64_t>(rec.covered_branches))
        .num("new_branches", static_cast<std::int64_t>(new_branches))
        .real("exec_seconds", rec.exec_seconds)
        .real("solve_seconds", rec.solve_seconds)
        .num("solver_nodes", rec.solver_nodes)
        .num("retries", rec.retries)
        .num("worker", rec.worker)
        .num("interleaving", rec.interleaving)
        .inputs(named_inputs);
    const obs::Diagnosis diag = diagnosis_engine.update(
        diagnosis_input(), static_cast<std::int64_t>(rec.covered_branches),
        rec.iteration);
    journal.flush();
    if (board == nullptr) return;
    board->set_diagnosis(obs::to_string(diag.kind), diag.detail,
                         diag.stalled_seconds);
    board->record_iteration(rec.iteration, rec.covered_branches,
                            result.bugs.size(), elapsed(), rec.nprocs,
                            rec.focus, rt::to_string(rec.outcome),
                            rec.worker);
    board->set_depths(rec.constraint_set_size, interleavings.queue.size());
    if (cache != nullptr) {
      board->set_solver_cache(static_cast<std::int64_t>(cache->hits()),
                              static_cast<std::int64_t>(cache->misses()));
    }
    m_frontier_depth.set(static_cast<std::int64_t>(rec.constraint_set_size));
    m_interleavings_pending.set(
        static_cast<std::int64_t>(interleavings.queue.size()));
    m_worker_progress[static_cast<std::size_t>(rec.worker)]->set(
        static_cast<std::int64_t>(elapsed()));
    if (!status_path.empty()) {
      (void)obs::write_status_file(
          status_path, obs::render_status_json(board->snapshot()));
    }
  };

  // Records one completed iteration (callers hold the state lock): its
  // result row, its CSV row, its rank logs under the retention policy, and
  // its journal event and heartbeat.
  const auto record_iteration_locked =
      [&](const IterationRecord& rec, minimpi::RunResult&& run,
          const std::map<std::string, std::int64_t>& named_inputs,
          std::size_t new_branches) {
        result.iterations.push_back(rec);
        if (session) {
          session->append_iteration(rec);
          session->retain_iteration(rec.iteration, std::move(run));
        }
        note_iteration(rec, named_inputs, new_branches);
      };

  // Distributed intake (callers hold the state lock): one report per
  // completed iteration, carrying FULL local state and a CUMULATIVE count
  // (see work_source.h) so replays after reconnects or reclaimed leases
  // are idempotent.  The ledger blob is rendered lazily — the work source
  // only pays for it when it actually transmits — by a closure that runs
  // inside report() on this thread and takes no locks of its own.
  const auto report_work_locked = [&](bool final_report) {
    if (options_.work_source == nullptr) return;
    WorkDelta d;
    d.final_report = final_report;
    d.iterations_completed =
        static_cast<std::int64_t>(result.iterations.size());
    d.covered = coverage.bitmap().covered_ids();
    d.interleaving_seen.assign(interleavings.seen.begin(),
                               interleavings.seen.end());
    d.bugs = result.bugs;
    if (tele_frontier.load() >= 0) {
      d.frontier_depth = tele_frontier.load();
    } else if (!result.iterations.empty()) {
      d.frontier_depth = static_cast<std::int64_t>(
          result.iterations.back().constraint_set_size);
    }
    d.elapsed_us = static_cast<std::int64_t>(elapsed() * 1e6);
    d.interleavings_pending =
        static_cast<std::int64_t>(interleavings.queue.size());
    d.solver_sat = tele_sat.load();
    d.solver_unsat = tele_unsat.load();
    d.solver_budget = tele_budget.load();
    d.exec_us = tele_exec_us.load();
    d.solve_us = tele_solve_us.load();
    d.ledger_blob = [&] {
      std::ostringstream blob;
      ledger.write(blob);
      return blob.str();
    };
    options_.work_source->report(d);
  };

  // End-of-iteration bookkeeping under the state lock: completion
  // tracking, cursor refresh, periodic checkpoint, halt hook.  Sets `stop`
  // when the campaign must end abruptly.
  const auto end_of_iteration_locked = [&](int iter, int w) {
    report_work_locked(/*final_report=*/false);
    if (iter >= 0 && iter < static_cast<int>(done.size())) {
      done[static_cast<std::size_t>(iter)] = 1;
      while (prefix < static_cast<int>(done.size()) &&
             done[static_cast<std::size_t>(prefix)] != 0) {
        ++prefix;
      }
    }
    ++executed;
    const bool periodic =
        options_.checkpoint_interval > 0 &&
        result.iterations.size() %
                static_cast<std::size_t>(options_.checkpoint_interval) ==
            0;
    const bool halt = options_.halt_after_iterations > 0 &&
                      executed >= options_.halt_after_iterations &&
                      next_ticket.load() < options_.iterations;
    if (checkpointing && (workers > 1 || periodic || halt)) {
      cursors[static_cast<std::size_t>(w)] =
          cursor_of(wstate[static_cast<std::size_t>(w)]);
    }
    if (periodic) save_checkpoint_locked(/*final_snapshot=*/false);
    if (halt) {
      save_checkpoint_locked(/*final_snapshot=*/false);
      halted = true;
      stop.store(true);
    }
  };

  // Campaign-wide accounting of one Executor::run (journal events name the
  // iteration and worker).  In-process runs have nothing to account.
  const auto account = [&](const ExecReport& x, int iter, int w) {
    if (!x.batch && !x.sandbox.forked && x.server_deaths == 0) return;
    const auto lock = lock_state();
    if (x.batch) {
      ++result.batch_runs;
      m_batch_runs.inc();
    }
    if (x.server_deaths > 0) {
      result.fork_server_restarts += x.server_deaths;
      m_server_restarts.inc(static_cast<std::int64_t>(x.server_deaths));
      obs::instant(obs::Cat::kSandbox, "server_restart");
      obs::JournalEvent(journal, "fork_server_restart", iter)
          .num("restarts", static_cast<std::int64_t>(x.server_restarts))
          .boolean("degraded", x.server_degraded)
          .num("worker", w);
    }
    if (x.warm) {
      ++result.warm_spawns;
      m_warm_spawns.inc();
      m_spawn_us.observe(static_cast<std::int64_t>(x.spawn_seconds * 1e6));
    } else if (x.cold) {
      ++result.cold_forks;
      m_cold_forks.inc();
    }
    const sandbox::SandboxStats& st = x.sandbox;
    if (!st.forked) return;
    ++result.sandbox_runs;
    result.sandbox_harvest_bytes += st.harvest_bytes;
    m_sandbox_harvest_bytes.inc(static_cast<std::int64_t>(st.harvest_bytes));
    if (st.signal_kill) {
      ++result.sandbox_signal_kills;
      m_sandbox_signal_kills.inc();
      obs::instant(obs::Cat::kSandbox, "signal_kill", "signal",
                   st.term_signal);
      obs::JournalEvent(journal, "sandbox_kill", iter)
          .str("kind", "signal")
          .num("signal", st.term_signal)
          .num("worker", w)
          .num("harvested_branches",
               static_cast<std::int64_t>(st.harvested.size()));
    }
    if (st.hang_kill) {
      ++result.sandbox_hang_kills;
      m_sandbox_hang_kills.inc();
      obs::instant(obs::Cat::kSandbox, "hang_kill");
      obs::JournalEvent(journal, "sandbox_kill", iter)
          .str("kind", "hang")
          .num("worker", w)
          .num("harvested_branches",
               static_cast<std::int64_t>(st.harvested.size()));
    }
  };

  // Every worker's Executor is made, and its fork server child forked,
  // here, before any worker thread exists: a fork taken while another
  // thread holds an allocator lock hands the child that lock, held forever.
  std::vector<std::unique_ptr<Executor>> executors;
  for (int w = 0; w < workers; ++w) {
    executors.push_back(std::make_unique<Executor>(*target_.table, options_));
    executors.back()->start(target_.program);
  }

  // ---- the worker loop ----
  const auto worker_body = [&](int w) {
    const int track_base = w * (options_.max_procs + 1);
    obs::set_thread_track(track_base);
    WorkerState& ws = wstate[static_cast<std::size_t>(w)];
    solver::Solver the_solver({options_.solver_node_budget});
    Framework framework(registry, options_.max_procs, options_.framework,
                        options_.conflict_resolution);
    Executor& executor = *executors[static_cast<std::size_t>(w)];
    // Branch ids the last execute() recovered from the sandbox harvest map
    // (empty for in-process runs and delivered results): the ledger flags
    // first hits that survived a child death with these.
    std::vector<sym::BranchId> last_harvested;
    int last_iter = -1;  // the ordinal this worker parks on when done

    const auto execute = [&](const minimpi::LaunchSpec& s, int iter) {
      ExecReport x;
      minimpi::RunResult r = executor.run(s, x);
      account(x, iter, w);
      last_harvested = std::move(x.sandbox.harvested);
      return r;
    };

    while (!stop.load(std::memory_order_relaxed) &&
           next_ticket.load() < options_.iterations) {
      if (options_.time_budget_seconds > 0 &&
          elapsed() >= options_.time_budget_seconds) {
        break;
      }
      // ---- distributed intake: lease one iteration, absorb the fleet ----
      // acquire() blocks for a lease (or passes immediately standalone /
      // degraded); false means the coordinator declared the global budget
      // done.  It runs before the ticket, so a denied acquire never burns
      // an ordinal.  Remote coverage merges BEFORE planning so the
      // strategy's dedup and stale-candidate pruning skip branches other
      // shards already covered — that is the frontier partition.
      if (options_.work_source != nullptr) {
        if (!options_.work_source->acquire()) {
          obs::JournalEvent(journal, "work_source_stop", next_ticket.load())
              .num("worker", w);
          stop.store(true);
          break;
        }
        const std::vector<sym::BranchId> fleet_covered =
            options_.work_source->take_remote_coverage();
        const std::vector<std::uint64_t> fleet_iseen =
            options_.work_source->take_remote_interleavings();
        if (!fleet_covered.empty() || !fleet_iseen.empty()) {
          const auto lock = lock_state();
          if (!fleet_covered.empty()) {
            rt::CoverageBitmap fleet(target_.table->num_branches());
            for (const sym::BranchId b : fleet_covered) fleet.mark(b);
            coverage.merge(fleet);
          }
          interleavings.seen.insert(fleet_iseen.begin(), fleet_iseen.end());
        }
      }
      const int iter = next_ticket.fetch_add(1);
      if (iter >= options_.iterations) break;
      obs::ObsSpan iter_span(obs::Cat::kDriver, "iteration", "iter", iter);
      int iter_retries = 0;  // transient retries absorbed by THIS iteration
      last_iter = iter;
      if (board != nullptr) {
        board->worker_phase(w, iter, obs::WorkerPhase::kExecute);
      }

      // ---- pop a pending reordered matching, if any ----
      // Interleavings are frontier items: each consumes one iteration,
      // replaying its parent run's inputs under the prescribed match plan.
      // The planned input-driven test simply runs on the next iteration.
      std::optional<PendingInterleaving> pending;
      if (options_.explore_matchings) {
        const auto lock = lock_state();
        if (!interleavings.queue.empty()) {
          pending = std::move(interleavings.queue.front());
          interleavings.queue.pop_front();
          ++interleavings.run_count;
        }
      }
      if (pending) {
        m_interleavings.inc();
        obs::JournalEvent(journal, "interleaving", iter)
            .num("id", pending->id)
            .num("plan_size",
                 static_cast<std::int64_t>(pending->plan.size()))
            .num("nprocs", pending->nprocs)
            .num("focus", pending->focus)
            .num("worker", w);
      }
      const solver::Assignment* run_inputs =
          pending ? &pending->inputs : &ws.plan.inputs;
      const int run_nprocs = pending ? pending->nprocs : ws.plan.nprocs;
      const int run_focus = pending ? pending->focus : ws.plan.focus;

      // ---- launch the planned test (§III-D) ----
      minimpi::LaunchSpec spec;
      spec.program = target_.program;
      spec.nprocs = run_nprocs;
      spec.focus = run_focus;
      spec.one_way = options_.one_way;
      spec.registry = &registry;
      spec.inputs = run_inputs;
      spec.rng_seed =
          mix_seed(options_.seed, static_cast<std::uint64_t>(iter));
      spec.step_budget = options_.step_budget;
      spec.reduction = options_.reduction;
      spec.mark_mpi_vars = options_.framework;
      spec.timeout = options_.test_timeout;
      spec.track_base = track_base;
      if (options_.explore_matchings) {
        spec.match_schedule = true;
        if (pending) spec.match_plan = pending->plan;
      }

      // A per-test timeout is transient until proven otherwise: retry with
      // a relaxed clock/step budget (and a re-mixed chaos seed, so injected
      // noise is re-rolled) before letting it count as a hang.
      minimpi::RunResult run;
      for (int attempt = 0;; ++attempt) {
        if (options_.chaos.enabled()) {
          spec.chaos = options_.chaos;
          spec.chaos.seed =
              mix_seed(options_.chaos.seed,
                       static_cast<std::uint64_t>(iter) * 64 +
                           static_cast<std::uint64_t>(attempt));
          obs::JournalEvent(journal, "chaos_armed", iter)
              .num("attempt", attempt)
              .num("worker", w)
              .num("seed", static_cast<std::int64_t>(spec.chaos.seed));
        }
        spec.timeout = options_.test_timeout * (1 << attempt);
        spec.step_budget = options_.step_budget << attempt;
        run = execute(spec, iter);
        if (run.job_outcome() != rt::Outcome::kTimeout) break;
        const std::string sig = bug_signature(run.job_message());
        bool known = false;
        {
          const auto lock = lock_state();
          // Already proven to hang: don't burn retries again.
          known = std::find(known_hangs.begin(), known_hangs.end(), sig) !=
                  known_hangs.end();
          if (!known && attempt >= options_.retry_max) {
            known_hangs.push_back(sig);
            known = true;
          }
        }
        if (known) break;
        obs::instant(obs::Cat::kChaosRetry, "timeout_retry", "attempt",
                     attempt);
        obs::JournalEvent(journal, "retry", iter)
            .str("kind", "timeout")
            .num("worker", w)
            .num("attempt", attempt);
        m_retries.inc();
        backoff(attempt);
        {
          const auto lock = lock_state();
          ++result.transient_retries;
        }
        ++iter_retries;
      }
      m_iterations.inc();

      const rt::TestLog& focus_log = run.focus_log();

      IterationRecord rec;
      rec.iteration = iter;
      rec.worker = w;
      rec.nprocs = run_nprocs;
      rec.focus = run_focus;
      rec.interleaving = pending ? pending->id : -1;
      rec.outcome = run.job_outcome();
      rec.constraint_set_size = focus_log.path.size();
      rec.exec_seconds = run.wall_seconds;
      rec.restart = ws.next_is_restart;
      rec.retries = iter_retries;
      m_exec_us.observe(static_cast<std::int64_t>(rec.exec_seconds * 1e6));
      tele_exec_us += static_cast<std::int64_t>(rec.exec_seconds * 1e6);

      // ---- record coverage and attribute the run (ledger) ----
      // All recorders' coverage, or the focus's only for No_Fwk.  The named
      // assignment is the focus's actually-used values, or the planned
      // assignment when the focus died before flushing its log (same
      // fallback the bug records use).
      std::map<std::string, std::int64_t> named_inputs;
      for (const auto& [var, value] :
           !focus_log.inputs_used.empty() ? focus_log.inputs_used
                                          : *run_inputs) {
        named_inputs[registry.meta(var).key] = value;
      }
      std::size_t covered_before = 0;
      {
        const auto lock = lock_state();
        covered_before = coverage.covered_branches();
        if (options_.framework) {
          coverage.merge(run.merged_coverage());
        } else {
          coverage.merge(run.focus_log().covered);
        }
        result.max_constraint_set =
            std::max(result.max_constraint_set, focus_log.path.size());
        CoverageLedger::RunContext lctx;
        lctx.iteration = iter;
        lctx.nprocs = run_nprocs;
        lctx.focus = run_focus;
        lctx.inputs = &named_inputs;
        lctx.harvested = &last_harvested;
        lctx.interleaving = pending ? pending->id : -1;
        ledger.record_run(lctx, run);
        rec.covered_branches = coverage.covered_branches();
        if (spec.match_schedule) {
          // Fork from the actually-used inputs when the focus recorded
          // them: an interleaving replays at a different iteration
          // (different RNG stream), so the planned assignment alone would
          // re-roll any value the parent drew randomly.
          enqueue_alternatives(interleavings, run.match_trace,
                               !focus_log.inputs_used.empty()
                                   ? focus_log.inputs_used
                                   : *run_inputs,
                               run_nprocs, run_focus,
                               options_.max_interleavings);
        }
      }
      m_covered.set(static_cast<std::int64_t>(rec.covered_branches));

      // ---- wildcard matchings: journal the decisions ----
      if (spec.match_schedule) {
        for (const minimpi::MatchRecord& mr : run.match_trace) {
          obs::JournalEvent(journal, "match_choice", iter)
              .num("rank", mr.rank)
              .num("seq", mr.seq)
              .num("src", mr.chosen_src)
              .num("feasible",
                   static_cast<std::int64_t>(mr.feasible.size()))
              .num("interleaving", rec.interleaving);
        }
        if (rec.outcome == rt::Outcome::kDeadlock) {
          obs::JournalEvent(journal, "deadlock", iter)
              .str("cycle", run.job_message())
              .num("interleaving", rec.interleaving);
        }
      }

      // ---- log error-inducing inputs (§V) ----
      if (rt::is_fault(rec.outcome)) {
        const std::string msg = run.job_message();
        const std::string sig = bug_signature(msg);
        const auto find_bug = [&] {
          return std::find_if(result.bugs.begin(), result.bugs.end(),
                              [&](const BugRecord& b) {
                                return bug_signature(b.message) == sig;
                              });
        };
        bool fresh = false;
        {
          const auto lock = lock_state();
          const auto known = find_bug();
          if (known == result.bugs.end()) {
            fresh = true;
          } else {
            ++known->occurrences;
          }
        }
        if (fresh) {
          BugRecord bug;
          bug.first_iteration = iter;
          bug.occurrences = 1;
          bug.outcome = rec.outcome;
          bug.message = msg;
          bug.inputs = focus_log.inputs_used;
          // A sandboxed child killed by a real signal dies before flushing
          // its log, so the focus's inputs_used is empty: fall back to the
          // planned assignment — those ARE the error-inducing inputs.
          if (bug.inputs.empty()) bug.inputs = *run_inputs;
          for (const auto& [var, value] : bug.inputs) {
            bug.named_inputs[registry.meta(var).key] = value;
          }
          bug.nprocs = run_nprocs;
          bug.focus = run_focus;
          if (spec.match_schedule) {
            // The full decision vector — not just the forced prefix — so
            // the replay pins EVERY wildcard choice of the failing run.
            bug.decisions.reserve(run.match_trace.size());
            for (const minimpi::MatchRecord& mr : run.match_trace) {
              bug.decisions.push_back({mr.rank, mr.seq, mr.chosen_src});
            }
          }
          if (options_.confirm_bugs) {
            // Replay once with the same inputs and NO injected noise; a bug
            // that fails to reproduce is environment-induced, hence flaky.
            // Same funnel as the discovery run (replaying a real SIGSEGV
            // in-process would kill the tester itself), outside the lock so
            // the other workers keep going.
            minimpi::LaunchSpec confirm = spec;
            confirm.chaos = minimpi::FaultPlan{};
            confirm.inputs = &bug.inputs;
            confirm.match_plan = bug.decisions;
            confirm.timeout = options_.test_timeout;
            confirm.step_budget = options_.step_budget;
            const minimpi::RunResult rerun = execute(confirm, iter);
            bug.flaky = rerun.job_outcome() != bug.outcome;
          }
          const auto lock = lock_state();
          // Re-check: another worker may have landed the same signature
          // while the confirmation replay ran.
          const auto known = find_bug();
          if (known == result.bugs.end()) {
            m_bugs.inc();
            result.bugs.push_back(std::move(bug));
            // Every bug in bugs.txt keeps its first iteration's rank logs.
            if (session) session->write_iteration(iter, run);
          } else {
            ++known->occurrences;
          }
        }
      }

      // ---- interleaving replays don't drive the search ----
      // The reordered matching's job was its outcome verdict and any new
      // coverage, both recorded above (plus the alternatives it forked).
      // The strategy neither observes its path nor solves from it; the
      // already-planned input-driven test runs on the next iteration.
      if (pending) {
        const auto lock = lock_state();
        record_iteration_locked(rec, std::move(run), named_inputs,
                                rec.covered_branches - covered_before);
        if (bug_budget_hit()) {
          obs::JournalEvent(journal, "bug_budget_exhausted", iter)
              .num("bugs", static_cast<std::int64_t>(result.bugs.size()));
          stop.store(true);
          break;
        }
        end_of_iteration_locked(iter, w);
        continue;
      }

      // ---- graceful degradation: the focus died before recording ----
      // A fault (often injected) killed the focus before any symbolic
      // branch was logged, so this run can't drive the search.  Re-plan
      // the same test with the focus moved to another rank instead of
      // wasting the iteration; bounded so a fault on EVERY rank still
      // terminates.
      const bool focus_dead =
          run.focus >= 0 &&
          static_cast<std::size_t>(run.focus) < run.ranks.size() &&
          run.ranks[run.focus].outcome != rt::Outcome::kOk;
      if (focus_dead && focus_log.path.empty() && ws.plan.nprocs > 1 &&
          ws.consecutive_replans < ws.plan.nprocs - 1) {
        const auto lock = lock_state();
        record_iteration_locked(rec, std::move(run), named_inputs,
                                rec.covered_branches - covered_before);
        ws.plan.focus = (ws.plan.focus + 1) % ws.plan.nprocs;
        ++result.focus_replans;
        ++ws.consecutive_replans;
        if (bug_budget_hit()) {
          stop.store(true);
          break;
        }
        end_of_iteration_locked(iter, w);
        continue;
      }
      ws.consecutive_replans = 0;

      // ---- two-phase switch: estimate the BoundedDFS depth bound ----
      if (two_phase && !ws.bounded_phase &&
          iter + 1 >= options_.dfs_phase_iterations) {
        std::size_t bound = 0;
        {
          const auto lock = lock_state();
          bound = options_.depth_bound > 0
                      ? static_cast<std::size_t>(options_.depth_bound)
                      : static_cast<std::size_t>(
                            static_cast<double>(result.max_constraint_set) *
                                options_.bound_slack +
                            10);
          result.depth_bound_used = bound;
        }
        ws.scfg.kind = SearchKind::kBoundedDfs;
        ws.scfg.bound = bound;
        ws.strategy = make_strategy(ws.scfg);
        ws.bounded_phase = true;
        ws.pending_depth.reset();  // root the new strategy at this path
      }

      ws.strategy->observe(focus_log.path, ws.next_is_restart
                                               ? std::nullopt
                                               : ws.pending_depth);
      ws.next_is_restart = false;
      ws.pending_depth.reset();

      // ---- pick and solve the next constraint set (§II-A) ----
      // Thread CPU time, not wall clock: the solve phase runs entirely on
      // this thread, and CPU time neither counts retry-backoff sleeps nor
      // double-counts when workers overlap (see DESIGN.md).
      const double solve_cpu_start = obs::thread_cpu_seconds();
      if (board != nullptr) {
        board->worker_phase(w, iter, obs::WorkerPhase::kSolve);
      }
      obs::ObsSpan plan_span(obs::Cat::kStrategy, "plan_next_test");
      bool planned = false;
      while (auto cand = ws.strategy->next()) {
        // Frontier deduplication: claim an UNCOVERED target arm before
        // spending solver budget on it.  Covered targets pass through
        // unclaimed — those are backtracking moves.
        bool claimed = false;
        if (cand->target >= 0) {
          const auto lock = lock_state();
          if (!coverage.branch_covered(cand->target)) {
            if (in_flight.count(cand->target) != 0) {
              ++result.frontier_dedup_skips;
              m_dedup_skips.inc();
              continue;
            }
            in_flight.insert(cand->target);
            claimed = true;
          }
        }

        // Insert the MPI-semantics constraints before the negated
        // constraint (which must stay last for incremental solving).
        std::vector<solver::Predicate> preds = std::move(cand->constraints);
        const solver::Predicate negated = std::move(preds.back());
        preds.pop_back();
        for (auto& p : framework.mpi_constraints(focus_log)) {
          preds.push_back(std::move(p));
        }
        preds.push_back(negated);

        const std::int64_t nodes_before = rec.solver_nodes;
        solver::SolveResult solved = the_solver.solve_incremental(
            preds, framework.domains(), focus_log.inputs_used, cache);
        rec.solver_nodes += solved.nodes_searched;
        // Node-budget exhaustion is "unknown", not UNSAT: back off and
        // retry the same query with a doubled budget before treating it as
        // failed.
        for (int attempt = 0;
             !solved.sat && solved.budget_exhausted &&
             attempt < options_.retry_max;
             ++attempt) {
          obs::instant(obs::Cat::kChaosRetry, "solver_retry", "attempt",
                       attempt);
          obs::JournalEvent(journal, "retry", iter)
              .str("kind", "solver")
              .num("attempt", attempt)
              .num("worker", w)
              .num("target", cand->target);
          m_retries.inc();
          backoff(attempt);
          {
            const auto lock = lock_state();
            ++result.transient_retries;
          }
          ++iter_retries;
          solver::Solver relaxed(
              {options_.solver_node_budget << (attempt + 1)});
          solved = relaxed.solve_incremental(preds, framework.domains(),
                                             focus_log.inputs_used, cache);
          rec.solver_nodes += solved.nodes_searched;
        }

        if (claimed) {
          const auto lock = lock_state();
          in_flight.erase(cand->target);
          if (coverage.branch_covered(cand->target)) {
            // Another worker's execution covered the arm while this solve
            // ran: the candidate is stale, its model worthless.  Drop it
            // without accepting or recording a failure.
            ++result.stale_candidate_drops;
            m_stale_drops.inc();
            obs::JournalEvent(journal, "stale_drop", iter)
                .num("worker", w)
                .num("target", cand->target);
            continue;
          }
        }

        obs::JournalEvent(journal, "solve", iter)
            .num("depth", static_cast<std::int64_t>(cand->depth))
            .num("target", cand->target)
            .num("worker", w)
            .boolean("sat", solved.sat)
            .boolean("budget_exhausted", solved.budget_exhausted)
            .num("nodes", rec.solver_nodes - nodes_before)
            .num("slice_size", static_cast<std::int64_t>(solved.slice_size));
        if (solved.sat) {
          ++tele_sat;
        } else if (solved.budget_exhausted) {
          ++tele_budget;
        } else {
          ++tele_unsat;
        }
        if (solved.sat) {
          ws.plan = framework.plan_next_test(solved, focus_log, ws.plan);
          ws.strategy->accepted(*cand);
          ws.pending_depth = cand->depth;
          ws.failures = 0;
          planned = true;
          break;
        }
        // The negation failed: remember the nearest miss for the branch it
        // was steering toward (UNSAT keeps the rendered constraint around
        // for --explain's never-taken report).
        if (cand->target >= 0) {
          const auto lock = lock_state();
          ledger.record_solve_failure(cand->target, iter,
                                      negated.to_string(),
                                      solved.budget_exhausted);
        }
        if (++ws.failures >= options_.restart_after_failures) break;
      }
      rec.solve_seconds = obs::thread_cpu_seconds() - solve_cpu_start;
      rec.retries = iter_retries;
      m_solve_us.observe(static_cast<std::int64_t>(rec.solve_seconds * 1e6));
      tele_solve_us += static_cast<std::int64_t>(rec.solve_seconds * 1e6);
      m_solver_nodes.observe(rec.solver_nodes);
      tele_frontier.store(
          planned ? static_cast<std::int64_t>(rec.constraint_set_size) : 0);

      // ---- record the iteration + end-of-iteration bookkeeping ----
      const auto lock = lock_state();
      record_iteration_locked(rec, std::move(run), named_inputs,
                              rec.covered_branches - covered_before);
      if (!planned) {
        // Strategy exhausted or solver stuck: restart with random inputs.
        ++result.restarts;
        m_restarts.inc();
        ws.plan.inputs.clear();
        ws.plan.nprocs = options_.initial_nprocs;
        ws.plan.focus = options_.initial_focus;
        ws.failures = 0;
        ws.next_is_restart = true;
      }
      if (bug_budget_hit()) {
        obs::JournalEvent(journal, "bug_budget_exhausted", iter)
            .num("bugs", static_cast<std::int64_t>(result.bugs.size()));
        stop.store(true);
        break;
      }
      end_of_iteration_locked(iter, w);
    }
    if (board != nullptr) {
      board->worker_phase(w, last_iter, obs::WorkerPhase::kDone);
    }
  };

  if (workers == 1) {
    worker_body(0);  // the serial campaign: one worker, this thread
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker_body, w);
  }  // join
  obs::set_thread_track(0);
  // Stop serving before finalize: the sort below mutates the iteration
  // vector the /explain endpoint reads, and finalize runs unlocked now
  // that the workers are done.
  control_plane.stop();

  // Flush the final delta whatever way the workers stopped (budget, bug
  // budget, stop grant): the work source retains it for reconciliation
  // even when the coordinator is unreachable right now.
  report_work_locked(/*final_report=*/true);

  // Final stall verdict for the report and --explain: one more sample at
  // the terminal state (the workers may have stopped between samples).
  {
    const obs::Diagnosis diag = diagnosis_engine.update(
        diagnosis_input(),
        static_cast<std::int64_t>(coverage.covered_branches()),
        result.iterations.empty() ? 0
                                  : result.iterations.back().iteration);
    result.stall_kind = obs::to_string(diag.kind);
    result.stall_detail = diag.detail;
    result.stalled_seconds = diag.stalled_seconds;
  }

  // ---- finalize ----
  std::sort(result.iterations.begin(), result.iterations.end(),
            [](const IterationRecord& a, const IterationRecord& b) {
              return a.iteration < b.iteration;
            });
  result.covered_branches = coverage.covered_branches();
  result.reachable_branches = coverage.reachable_branches();
  result.total_branches = coverage.total_branches();
  result.coverage_rate = coverage.rate();
  result.function_coverage = coverage.per_function();
  if (cache != nullptr) {
    result.solver_cache_hits = static_cast<std::size_t>(cache->hits());
    result.solver_cache_misses = static_cast<std::size_t>(cache->misses());
  }
  result.total_seconds = elapsed();
  result.total_exec_seconds = 0.0;
  result.total_solve_seconds = 0.0;
  for (const IterationRecord& r : result.iterations) {
    result.total_exec_seconds += r.exec_seconds;
    result.total_solve_seconds += r.solve_seconds;
    if (r.outcome == rt::Outcome::kDeadlock) ++result.deadlocks_found;
    if (r.outcome == rt::Outcome::kOrphanMessage) {
      ++result.orphan_messages_found;
    }
  }
  result.interleavings_enqueued = interleavings.enqueued;
  result.interleavings_run = interleavings.run_count;
  result.interleavings_pruned = interleavings.pruned;
  result.interleavings_capped = interleavings.capped;
  // A simulated kill stops before the summary files exist, exactly like a
  // real SIGKILL would; only the checkpoint survives (end_of_iteration
  // already exported the observability artifacts with it).
  if (halted) return result;
  if (session) {
    session->write_summary(result);
    if (options_.checkpoint_interval > 0) {
      for (int w = 0; w < workers; ++w) {
        cursors[static_cast<std::size_t>(w)] =
            cursor_of(wstate[static_cast<std::size_t>(w)]);
      }
      save_checkpoint_locked(/*final_snapshot=*/true);  // + ledger, timeline
    } else {
      session->write_ledger(ledger, *target_.table);
      session->write_coverage_timeline(result.iterations);
    }
  }
  campaign_span.finish();  // close before the dump so the span is in it
  journal.close();
  export_obs();
  return result;
}

}  // namespace compi
