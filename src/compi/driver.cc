// The campaign engine (paper §II-A, Fig. 3).
//
// A campaign is `--workers` N workers, each running the full
// execute -> observe -> solve loop, whose results merge into ONE campaign:
// one CoverageTracker, attribution ledger, bug list, iteration log and
// event journal.  Each worker owns a private search line — strategy, test
// plan, solver, solver cache, Framework, Executor, variable registry and
// interleaving queue — so its runs depend only on what it is shown.
//
// Bulk-synchronous epochs (DESIGN.md §4.4.1): an epoch's ordinals are
// dealt to the workers (plan_epoch); each runs its share against a private
// view — the campaign at the epoch's start plus its own finds — writes no
// shared state and records one Outcome per ordinal; at the barrier one
// thread applies the outcomes in ordinal order.  So a campaign depends
// only on its seed and options, never on thread timing.  The serial
// campaign (N = 1, the default) is the same loop with one worker on the
// calling thread, one ordinal per epoch.
//
// Timing: exec_seconds is each worker's launch-phase wall clock;
// solve_seconds is the worker's THREAD CPU time, which sums correctly
// across overlapping workers (see obs/phase_clock.h and DESIGN.md).
//
// Checkpointing: the snapshot embeds one WorkerCursor per worker (plan,
// strategy state, registry, interleaving queue) taken at a barrier, plus
// the iterations.csv row count; resume requires the same seed AND the same
// --workers, otherwise the campaign starts fresh rather than remapping
// search lines.
#include "compi/driver.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>
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

/// Ordinals each worker runs per epoch (L).  Longer slices keep workers
/// busy through uneven iteration costs; shorter ones show each worker the
/// others' finds sooner.  Chosen from the sweeps in EXPERIMENTS.md.
constexpr int kSliceOrdinals = 256;

/// What one ordinal did, recorded by its worker for the apply step.
struct Outcome {
  int worker = 0;  // dealt by the epoch plan
  bool ran = false;
  IterationRecord rec;  // covered_branches is filled in by the apply step
  minimpi::RunResult run;
  /// Coverage this run contributes (all recorders, or the focus's only).
  rt::CoverageBitmap covered;
  std::map<std::string, std::int64_t> named_inputs;
  /// Branch ids recovered from the sandbox harvest map (ledger flags).
  std::vector<sym::BranchId> harvested;
  /// A fault whose signature the worker had not seen: the bug record, to
  /// be kept unless an earlier ordinal landed the same signature.
  std::optional<BugRecord> bug;
  /// What the run adds to the campaign's counters (add_counts).
  CampaignCounters counts;
  /// Its solver outcome mix, and the frontier depth it leaves (-1: none).
  std::int64_t sat = 0, unsat = 0, budget = 0, frontier = -1;
  std::optional<std::string> hang;  // a signature it proved to hang
  std::vector<std::uint64_t> seen;  // sleep-set hashes it inserted
  /// Failed negations for the ledger: target, constraint, budget hit.
  std::vector<std::tuple<sym::BranchId, std::string, bool>> misses;
  std::vector<std::string> events;  // its journal lines, in order
};

/// Adds one outcome's counts; a depth bound it set replaces the campaign's.
void add_counts(CampaignCounters& to, const CampaignCounters& d) {
  using C = CampaignCounters;
  for (std::size_t C::*f :
       {&C::restarts, &C::transient_retries, &C::focus_replans,
        &C::sandbox_runs, &C::sandbox_signal_kills, &C::sandbox_hang_kills,
        &C::sandbox_harvest_bytes, &C::warm_spawns, &C::cold_forks,
        &C::fork_server_restarts, &C::interleavings_enqueued,
        &C::interleavings_run, &C::interleavings_pruned,
        &C::interleavings_capped}) {
    to.*f += d.*f;
  }
  if (d.depth_bound_used > 0) to.depth_bound_used = d.depth_bound_used;
}

/// One worker: its search line, which persists across epochs, plus its
/// private view of the campaign, which the apply step resets each epoch.
struct Worker : ckpt::SearchLine {
  Worker(const rt::BranchTable& table, const CampaignOptions& options)
      : framework(registry, options.max_procs, options.framework,
                  options.conflict_resolution),
        solver({options.solver_node_budget}),
        executor(table, options),
        coverage(table) {
    if (options.solver_cache_entries > 0) {
      cache.emplace(static_cast<std::size_t>(options.solver_cache_entries));
    }
  }

  // ---- the rest of the search line (checkpointed in its WorkerCursor) ----
  std::unique_ptr<SearchStrategy> strategy;
  StrategyConfig scfg;
  rt::VarRegistry registry;
  /// Its queue and id space persist; `seen` and `enqueued` are the view.
  InterleavingFrontier interleavings;

  // ---- engines ----
  Framework framework;
  solver::Solver solver;
  /// Private so that hits, and with them the solver_nodes column, depend
  /// only on this worker's own queries.
  std::optional<solver::SolveCache> cache;
  Executor executor;

  // ---- the view: the campaign at the epoch's start plus own finds ----
  CoverageTracker coverage;
  std::vector<std::string> known_hangs;
  std::unordered_set<std::string> bug_signatures;
  std::size_t max_constraint_set = 0;

  int last_iter = -1;  // the ordinal this worker parks on when done
  std::exception_ptr error;
};

ckpt::WorkerCursor cursor_of(const Worker& wk) {
  ckpt::WorkerCursor cur;
  static_cast<ckpt::SearchLine&>(cur) = wk;
  cur.depth_bound = wk.scfg.bound;
  cur.strategy_name = wk.strategy->name();
  std::ostringstream blob;
  wk.strategy->save_state(blob);
  cur.strategy_state = blob.str();
  cur.registry = wk.registry.all();
  cur.pending_interleavings.assign(wk.interleavings.queue.begin(),
                                   wk.interleavings.queue.end());
  cur.next_interleaving_id = wk.interleavings.next_id;
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
      "Iterations run by the fork server's persistent executor");
  obs::Counter& m_cold_forks = reg.counter(
      "compi_cold_forks_total",
      "Iterations that fell back to a cold per-iteration fork");
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

  std::vector<std::unique_ptr<Worker>> pool;
  // Workers go newest first.  Each fork server inherits the ctl write ends
  // of the servers forked before it, so an older executor sees its ctl
  // close only once every newer server has exited; in creation order each
  // older one would wait out ForkServer's stop grace and be SIGKILLed.
  struct NewestFirst {
    std::vector<std::unique_ptr<Worker>>& pool;
    ~NewestFirst() {
      while (!pool.empty()) pool.pop_back();
    }
  } newest_first{pool};

  // Solver memoization (--solver-cache=N entries; 0 = off, the default):
  // one cache per worker.  The registry's counters are cumulative across
  // campaigns in one process (bench loops); sync by delta so each export
  // reflects this campaign's totals without double counting.
  const bool caching = options_.solver_cache_entries > 0;
  const auto cache_total =
      [&](std::int64_t (solver::SolveCache::*counter)() const) {
        std::int64_t n = 0;
        for (const auto& wk : pool) {
          if (wk->cache) n += ((*wk->cache).*counter)();
        }
        return n;
      };
  const auto sync_cache_metrics = [&] {
    if (!caching) return;
    m_cache_hits.inc(cache_total(&solver::SolveCache::hits) -
                     m_cache_hits.value());
    m_cache_misses.inc(cache_total(&solver::SolveCache::misses) -
                       m_cache_misses.value());
    m_cache_evictions.inc(cache_total(&solver::SolveCache::evictions) -
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

  // ---- the campaign state ----
  // Written only by the apply step, while every worker waits at the
  // barrier.  `mu` keeps the apply step and the control plane's /explain
  // handler apart.
  std::mutex mu;
  std::vector<std::string> known_hangs;  // signatures proven to really hang
  /// The campaign's interleaving sleep set; the pending matchings
  /// themselves are queued per worker.
  std::unordered_set<std::uint64_t> interleaving_seen;
  bool stop = false;
  bool halted = false;

  // Running totals for the telemetry piggyback (work_source.h) and the
  // stall-diagnosis engine: cumulative solver outcome mix and phase time.
  std::int64_t tele_sat = 0, tele_unsat = 0, tele_budget = 0;
  std::int64_t tele_exec_us = 0, tele_solve_us = 0;
  /// Live frontier depth: the last planned constraint set's size, or 0 the
  /// moment a worker's strategy ran dry (the frontier-starved signal).
  std::int64_t tele_frontier = -1;
  const auto interleavings_pending = [&] {
    std::size_t n = 0;
    for (const auto& wk : pool) n += wk->interleavings.queue.size();
    return n;
  };

  // Stall diagnosis (obs/diagnosis.h): fed once per iteration, journals
  // verdict transitions, and leaves its final verdict on the result.  Pure
  // computation over local state — obs-off and serve-off sessions see the
  // identical artifact bytes they always did.
  obs::DiagnosisEngine diagnosis_engine(&journal);
  const auto diagnosis_input = [&] {
    obs::DiagnosisInput in;
    in.elapsed_seconds = elapsed();
    in.frontier_depth = tele_frontier;
    in.interleavings_pending =
        static_cast<std::int64_t>(interleavings_pending());
    in.solver_sat = tele_sat;
    in.solver_unsat = tele_unsat;
    in.solver_budget = tele_budget;
    in.plateau_window_seconds = options_.stall_window_seconds;
    return in;
  };

  // Two-phase search (paper §II-B): pure DFS for the first
  // dfs_phase_iterations, then BoundedDFS with a bound derived from the
  // longest observed constraint set.  Other strategies run single-phase.
  const bool two_phase = options_.search == SearchKind::kBoundedDfs;
  const auto set_strategy = [&](Worker& wk, int w, bool bounded,
                                std::size_t bound) {
    StrategyConfig& scfg = wk.scfg;
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
    scfg.coverage = &wk.coverage;
    wk.strategy = make_strategy(scfg);
    wk.bounded_phase = bounded;
  };
  const auto fresh_pool = [&] {
    pool.clear();
    for (int w = 0; w < workers; ++w) {
      Worker& wk = *pool.emplace_back(
          std::make_unique<Worker>(*target_.table, options_));
      set_strategy(wk, w, false, static_cast<std::size_t>(-1));
      wk.plan.nprocs = options_.initial_nprocs;
      wk.plan.focus = options_.initial_focus;
      wk.interleavings.next_id = w + 1;
      wk.interleavings.id_stride = workers;
    }
  };
  fresh_pool();

  // ---- resume a checkpointed session (crash recovery) ----
  int start_iter = 0;
  ckpt::StreamLengths resume_at;  // the snapshot's commit point
  if (options_.resume && session) {
    std::optional<ckpt::CampaignCheckpoint> c =
        read_checkpoint(options_.log_dir);
    if (c && c->seed == options_.seed &&
        c->worker_cursors.size() == static_cast<std::size_t>(workers)) {
      bool loaded = true;
      for (int w = 0; w < workers && loaded; ++w) {
        const ckpt::WorkerCursor& cur =
            c->worker_cursors[static_cast<std::size_t>(w)];
        Worker& wk = *pool[static_cast<std::size_t>(w)];
        static_cast<ckpt::SearchLine&>(wk) = cur;
        set_strategy(wk, w, two_phase && cur.bounded_phase, cur.depth_bound);
        std::istringstream blob(cur.strategy_state);
        loaded = cur.strategy_name == wk.strategy->name() &&
                 wk.strategy->load_state(blob);
        for (const rt::VarMeta& meta : cur.registry) {
          wk.registry.intern(meta.key, meta.kind, meta.domain, meta.cap,
                             meta.comm_index);
        }
        wk.interleavings.queue.assign(cur.pending_interleavings.begin(),
                                      cur.pending_interleavings.end());
        wk.interleavings.next_id = cur.next_interleaving_id;
      }
      if (!loaded) {
        fresh_pool();  // a half-readable snapshot: start cleanly instead
      } else {
        rt::CoverageBitmap bitmap(target_.table->num_branches());
        for (sym::BranchId b : c->covered) bitmap.mark(b);
        coverage.merge(bitmap);
        result.iterations = std::move(c->iterations);
        result.bugs = std::move(c->bugs);
        static_cast<CampaignCounters&>(result) = *c;
        result.resumed = true;
        known_hangs = std::move(c->known_hang_signatures);
        interleaving_seen.insert(c->interleaving_seen.begin(),
                                 c->interleaving_seen.end());
        start_iter = c->next_iteration;
        resume_at = c->streams;
        if (!c->ledger_state.empty()) {
          std::istringstream ledger_blob(c->ledger_state);
          // A failed read keeps the fresh ledger: attribution restarts but
          // the campaign itself is unaffected.
          (void)ledger.read(ledger_blob);
        }
      }
    }
  }

  // Every worker's fork server child is forked here, before any worker or
  // control-plane thread exists: a fork taken while another thread holds
  // an allocator lock hands the child that lock, held forever.
  for (const auto& wk : pool) wk->executor.start(target_.program);

  // Open the session's append-only streams (iterations.csv, the coverage
  // timeline and, with --journal, the event journal), so a crash
  // mid-campaign loses at most the rows past the last snapshot.  A resume
  // cuts them back to the snapshot's commit point first.
  if (session) {
    obs::Journal* const journal_file = options_.journal ? &journal : nullptr;
    if (result.resumed) {
      const std::string verdict = session->resume_iterations(
          resume_at, result.iterations, journal_file);
      if (const auto kind = obs::stall_kind_from_string(verdict)) {
        diagnosis_engine.resume(*kind);
      }
    } else {
      session->begin_iterations({}, journal_file);
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
  // stops it explicitly once the workers are done, before finalize.
  serve::ControlPlane control_plane;
  if (serving && board != nullptr) {
    serve::ControlPlaneConfig cp;
    cp.port = options_.serve_port;
    cp.registry = &reg;
    cp.journal = &journal;
    cp.status = [board] { return board->snapshot(); };
    cp.explain = [&, board] {
      // /explain renders a bounded summary from the live ledger under the
      // campaign mutex — the lock the apply step holds while it writes.
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

  // Snapshot at a barrier, from the parked workers.  The snapshot holds no
  // history: it commits every iterations.csv row and journal event so
  // far, which the session flushes before it.  The final snapshot, taken
  // after summary.txt, points at the budget, so a resume of a finished
  // campaign runs nothing; it skips the fsyncs, as the summary files it
  // follows have none either.
  const auto save_checkpoint = [&](int next_iteration, bool final_snapshot) {
    if (!session) return;
    obs::ObsSpan span(obs::Cat::kCheckpoint, "save_checkpoint", "iteration",
                      next_iteration);
    ckpt::CampaignCheckpoint c;
    c.seed = options_.seed;
    c.next_iteration = final_snapshot
                           ? std::max(next_iteration, options_.iterations)
                           : next_iteration;
    c.finished = final_snapshot;
    for (const auto& wk : pool) c.worker_cursors.push_back(cursor_of(*wk));
    static_cast<CampaignCounters&>(c) = result;
    c.history_rows = result.iterations.size();
    c.bugs = result.bugs;
    c.covered = coverage.bitmap().covered_ids();
    c.known_hang_signatures = known_hangs;
    c.interleaving_seen.assign(interleaving_seen.begin(),
                               interleaving_seen.end());
    // Hash-set iteration order is arbitrary: sort so identical campaigns
    // write byte-identical snapshots.
    std::sort(c.interleaving_seen.begin(), c.interleaving_seen.end());
    std::ostringstream ledger_blob;
    ledger.write(ledger_blob);
    c.ledger_state = ledger_blob.str();
    session->write_checkpoint(std::move(c), /*sync=*/!final_snapshot);
    session->write_ledger(ledger, *target_.table);
    export_obs();
  };

  // One "iteration" journal event per iterations.csv row, plus the stall
  // diagnosis and the status board.
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
    if (board == nullptr) return;
    board->set_diagnosis(obs::to_string(diag.kind), diag.detail,
                         diag.stalled_seconds);
    board->record_iteration(rec.iteration, rec.covered_branches,
                            result.bugs.size(), elapsed(), rec.nprocs,
                            rec.focus, rt::to_string(rec.outcome),
                            rec.worker);
    const std::size_t pending = interleavings_pending();
    board->set_depths(rec.constraint_set_size, pending);
    if (caching) {
      board->set_solver_cache(cache_total(&solver::SolveCache::hits),
                              cache_total(&solver::SolveCache::misses));
    }
    m_frontier_depth.set(static_cast<std::int64_t>(rec.constraint_set_size));
    m_interleavings_pending.set(static_cast<std::int64_t>(pending));
    m_worker_progress[static_cast<std::size_t>(rec.worker)]->set(
        static_cast<std::int64_t>(elapsed()));
  };

  // Distributed intake: one report per applied epoch, carrying FULL
  // local state and a CUMULATIVE count (see work_source.h) so replays after
  // reconnects or reclaimed leases are idempotent.  The ledger blob is
  // rendered lazily — the work source only pays for it when it actually
  // transmits — by a closure that runs inside report() on this thread and
  // takes no locks of its own.
  const auto report_work = [&](bool final_report) {
    if (options_.work_source == nullptr) return;
    WorkDelta d;
    d.final_report = final_report;
    d.iterations_completed =
        static_cast<std::int64_t>(result.iterations.size());
    d.covered = coverage.bitmap().covered_ids();
    d.interleaving_seen.assign(interleaving_seen.begin(),
                               interleaving_seen.end());
    d.bugs = result.bugs;
    if (tele_frontier >= 0) {
      d.frontier_depth = tele_frontier;
    } else if (!result.iterations.empty()) {
      d.frontier_depth = static_cast<std::int64_t>(
          result.iterations.back().constraint_set_size);
    }
    d.elapsed_us = static_cast<std::int64_t>(elapsed() * 1e6);
    d.interleavings_pending =
        static_cast<std::int64_t>(interleavings_pending());
    d.solver_sat = tele_sat;
    d.solver_unsat = tele_unsat;
    d.solver_budget = tele_budget;
    d.exec_us = tele_exec_us;
    d.solve_us = tele_solve_us;
    d.ledger_blob = [&] {
      std::ostringstream blob;
      ledger.write(blob);
      return blob.str();
    };
    options_.work_source->report(d);
  };

  // Campaign-wide accounting of one Executor::run, on its worker's thread:
  // live metrics now, counters and journal events into the outcome.
  const auto account = [&](const ExecReport& x, Outcome& o, int iter, int w) {
    CampaignCounters& n = o.counts;
    if (x.server_deaths > 0) {
      n.fork_server_restarts += x.server_deaths;
      m_server_restarts.inc(static_cast<std::int64_t>(x.server_deaths));
      obs::instant(obs::Cat::kSandbox, "server_restart");
      obs::JournalEvent(journal, "fork_server_restart", iter, &o.events)
          .num("restarts", static_cast<std::int64_t>(x.server_restarts))
          .boolean("degraded", x.server_degraded)
          .num("worker", w);
    }
    if (x.warm) {
      ++n.warm_spawns;
      m_warm_spawns.inc();
      m_spawn_us.observe(static_cast<std::int64_t>(x.spawn_seconds * 1e6));
    } else if (x.cold) {
      ++n.cold_forks;
      m_cold_forks.inc();
    }
    const sandbox::SandboxStats& st = x.sandbox;
    if (!st.forked) return;
    ++n.sandbox_runs;
    n.sandbox_harvest_bytes += st.harvest_bytes;
    m_sandbox_harvest_bytes.inc(static_cast<std::int64_t>(st.harvest_bytes));
    if (st.signal_kill) {
      ++n.sandbox_signal_kills;
      m_sandbox_signal_kills.inc();
      obs::instant(obs::Cat::kSandbox, "signal_kill", "signal",
                   st.term_signal);
      obs::JournalEvent(journal, "sandbox_kill", iter, &o.events)
          .str("kind", "signal")
          .num("signal", st.term_signal)
          .num("worker", w)
          .num("harvested_branches",
               static_cast<std::int64_t>(st.harvested.size()));
    }
    if (st.hang_kill) {
      ++n.sandbox_hang_kills;
      m_sandbox_hang_kills.inc();
      obs::instant(obs::Cat::kSandbox, "hang_kill");
      obs::JournalEvent(journal, "sandbox_kill", iter, &o.events)
          .str("kind", "hang")
          .num("worker", w)
          .num("harvested_branches",
               static_cast<std::int64_t>(st.harvested.size()));
    }
  };

  // ---- one ordinal, on its worker's thread ----
  // Reads only the worker's own state and view; everything the campaign
  // learns from the run goes into `o` for the apply step.
  const auto run_ordinal = [&](Worker& wk, int w, int iter, Outcome& o) {
    const int track_base = w * (options_.max_procs + 1);
    obs::ObsSpan iter_span(obs::Cat::kDriver, "iteration", "iter", iter);
    o.ran = true;
    wk.last_iter = iter;
    int iter_retries = 0;  // transient retries absorbed by THIS iteration
    if (board != nullptr) {
      board->worker_phase(w, iter, obs::WorkerPhase::kExecute);
    }
    // A journal event held in the outcome, for the apply step to commit.
    const auto event = [&](std::string_view type) {
      return obs::JournalEvent(journal, type, iter, &o.events);
    };
    const auto execute = [&](const minimpi::LaunchSpec& s) {
      ExecReport x;
      minimpi::RunResult r = wk.executor.run(s, x);
      account(x, o, iter, w);
      o.harvested = std::move(x.sandbox.harvested);
      return r;
    };

    // ---- pop a pending reordered matching, if any ----
    // Interleavings are frontier items: each consumes one iteration,
    // replaying its parent run's inputs under the prescribed match plan.
    // The planned input-driven test simply runs on the next iteration.
    std::optional<PendingInterleaving> pending;
    if (options_.explore_matchings && !wk.interleavings.queue.empty()) {
      pending = std::move(wk.interleavings.queue.front());
      wk.interleavings.queue.pop_front();
      m_interleavings.inc();
      ++o.counts.interleavings_run;
      event("interleaving")
          .num("id", pending->id)
          .num("plan_size", static_cast<std::int64_t>(pending->plan.size()))
          .num("nprocs", pending->nprocs)
          .num("focus", pending->focus)
          .num("worker", w);
    }
    const solver::Assignment* run_inputs =
        pending ? &pending->inputs : &wk.plan.inputs;
    const int run_nprocs = pending ? pending->nprocs : wk.plan.nprocs;
    const int run_focus = pending ? pending->focus : wk.plan.focus;

    // ---- launch the planned test (§III-D) ----
    minimpi::LaunchSpec spec;
    spec.program = target_.program;
    spec.nprocs = run_nprocs;
    spec.focus = run_focus;
    spec.one_way = options_.one_way;
    spec.registry = &wk.registry;
    spec.inputs = run_inputs;
    spec.rng_seed = mix_seed(options_.seed, static_cast<std::uint64_t>(iter));
    spec.step_budget = options_.step_budget;
    spec.reduction = options_.reduction;
    spec.mark_mpi_vars = options_.framework;
    spec.timeout = options_.test_timeout;
    spec.track_base = track_base;
    if (pending) spec.match_plan = pending->plan;

    // A per-test timeout is transient until proven otherwise: retry with
    // a doubled step budget (and a re-mixed chaos seed, so injected noise
    // is re-rolled) before letting it count as a hang.  The timeout itself
    // stays: it is virtual job time, which a rerun does not change.
    minimpi::RunResult run;
    for (int attempt = 0;; ++attempt) {
      if (options_.chaos.enabled()) {
        spec.chaos = options_.chaos;
        spec.chaos.seed =
            mix_seed(options_.chaos.seed,
                     static_cast<std::uint64_t>(iter) * 64 +
                         static_cast<std::uint64_t>(attempt));
        event("chaos_armed")
            .num("attempt", attempt)
            .num("worker", w)
            .num("seed", static_cast<std::int64_t>(spec.chaos.seed));
      }
      spec.step_budget = options_.step_budget << attempt;
      run = execute(spec);
      if (run.job_outcome() != rt::Outcome::kTimeout) break;
      // Already proven to hang: don't burn retries again.
      const std::string sig = bug_signature(run.job_message());
      bool known = std::find(wk.known_hangs.begin(), wk.known_hangs.end(),
                             sig) != wk.known_hangs.end();
      if (!known && attempt >= options_.retry_max) {
        wk.known_hangs.push_back(sig);
        o.hang = sig;
        known = true;
      }
      if (known) break;
      obs::instant(obs::Cat::kChaosRetry, "timeout_retry", "attempt",
                   attempt);
      ++o.counts.transient_retries;
      event("retry")
          .str("kind", "timeout")
          .num("worker", w)
          .num("attempt", attempt);
      m_retries.inc();
      ++iter_retries;
    }
    m_iterations.inc();

    const rt::TestLog& focus_log = run.focus_log();

    IterationRecord& rec = o.rec;
    rec.iteration = iter;
    rec.worker = w;
    rec.nprocs = run_nprocs;
    rec.focus = run_focus;
    rec.interleaving = pending ? pending->id : -1;
    rec.outcome = run.job_outcome();
    rec.constraint_set_size = focus_log.path.size();
    rec.exec_seconds = run.wall_seconds;
    rec.restart = wk.next_is_restart;
    rec.retries = iter_retries;
    m_exec_us.observe(static_cast<std::int64_t>(rec.exec_seconds * 1e6));

    // ---- coverage for the view, named inputs for the ledger ----
    // All recorders' coverage, or the focus's only for No_Fwk.  The named
    // assignment is the focus's actually-used values, or the planned
    // assignment when the focus died before flushing its log (same
    // fallback the bug records use).
    for (const auto& [var, value] :
         !focus_log.inputs_used.empty() ? focus_log.inputs_used
                                        : *run_inputs) {
      o.named_inputs[wk.registry.meta(var).key] = value;
    }
    o.covered = options_.framework ? run.merged_coverage() : focus_log.covered;
    wk.coverage.merge(o.covered);
    wk.max_constraint_set =
        std::max(wk.max_constraint_set, focus_log.path.size());
    if (options_.explore_matchings) {
      // Fork from the actually-used inputs when the focus recorded them:
      // an interleaving replays at a different iteration (different RNG
      // stream), so the planned assignment alone would re-roll any value
      // the parent drew randomly.
      InterleavingFrontier& fr = wk.interleavings;
      fr.pruned = fr.capped = 0;
      const std::size_t added = enqueue_alternatives(
          fr, run.match_trace,
          !focus_log.inputs_used.empty() ? focus_log.inputs_used
                                         : *run_inputs,
          run_nprocs, run_focus, options_.max_interleavings);
      o.counts.interleavings_enqueued = added;
      o.counts.interleavings_pruned = fr.pruned;
      o.counts.interleavings_capped = fr.capped;
      for (auto p = fr.queue.end() - static_cast<std::ptrdiff_t>(added);
           p != fr.queue.end(); ++p) {
        o.seen.push_back(plan_hash(p->plan));
      }

      // ---- wildcard matchings: journal the decisions ----
      for (const minimpi::MatchRecord& mr : run.match_trace) {
        event("match_choice")
            .num("rank", mr.rank)
            .num("seq", mr.seq)
            .num("src", mr.chosen_src)
            .num("feasible", static_cast<std::int64_t>(mr.feasible.size()))
            .num("interleaving", rec.interleaving);
      }
    }
    if (rec.outcome == rt::Outcome::kDeadlock) {
      event("deadlock")
          .str("cycle", run.job_message())
          .num("interleaving", rec.interleaving);
    }

    // ---- log error-inducing inputs (§V) ----
    if (rt::is_fault(rec.outcome)) {
      const std::string msg = run.job_message();
      if (wk.bug_signatures.insert(bug_signature(msg)).second) {
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
          bug.named_inputs[wk.registry.meta(var).key] = value;
        }
        bug.nprocs = run_nprocs;
        bug.focus = run_focus;
        // The full decision vector — not just the forced prefix — so the
        // replay pins EVERY wildcard choice of the failing run.
        bug.decisions.reserve(run.match_trace.size());
        for (const minimpi::MatchRecord& mr : run.match_trace) {
          bug.decisions.push_back({mr.rank, mr.seq, mr.chosen_src});
        }
        if (options_.confirm_bugs) {
          // Replay once with the same inputs and NO injected noise; a bug
          // that fails to reproduce is environment-induced, hence flaky.
          // Same funnel as the discovery run: replaying a real SIGSEGV
          // in-process would kill the tester itself.
          minimpi::LaunchSpec confirm = spec;
          confirm.chaos = minimpi::FaultPlan{};
          confirm.inputs = &bug.inputs;
          confirm.match_plan = bug.decisions;
          confirm.step_budget = options_.step_budget;
          std::vector<sym::BranchId> harvested = std::move(o.harvested);
          const minimpi::RunResult rerun = execute(confirm);
          o.harvested = std::move(harvested);
          bug.flaky = rerun.job_outcome() != bug.outcome;
        }
        o.bug = std::move(bug);
      }
    }

    const auto finish = [&] {
      // Without a session no rank log is written: the apply step needs
      // only each rank's coverage, so the rest goes now instead of staying
      // alive until the barrier.
      if (!session) {
        for (minimpi::RankResult& r : run.ranks) {
          rt::TestLog coverage_only;
          coverage_only.covered = std::move(r.log.covered);
          r.log = std::move(coverage_only);
        }
      }
      o.run = std::move(run);
    };

    // ---- interleaving replays don't drive the search ----
    // The reordered matching's job was its outcome verdict and any new
    // coverage, both recorded above (plus the alternatives it forked).
    // The strategy neither observes its path nor solves from it; the
    // already-planned input-driven test runs on the next iteration.
    if (pending) return finish();

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
    if (focus_dead && focus_log.path.empty() && wk.plan.nprocs > 1 &&
        wk.consecutive_replans < wk.plan.nprocs - 1) {
      wk.plan.focus = (wk.plan.focus + 1) % wk.plan.nprocs;
      ++wk.consecutive_replans;
      ++o.counts.focus_replans;
      return finish();
    }
    wk.consecutive_replans = 0;

    // ---- two-phase switch: estimate the BoundedDFS depth bound ----
    if (two_phase && !wk.bounded_phase &&
        iter + 1 >= options_.dfs_phase_iterations) {
      const std::size_t bound =
          options_.depth_bound > 0
              ? static_cast<std::size_t>(options_.depth_bound)
              : static_cast<std::size_t>(
                    static_cast<double>(wk.max_constraint_set) *
                        options_.bound_slack +
                    10);
      o.counts.depth_bound_used = bound;
      set_strategy(wk, w, true, bound);
      wk.pending_depth.reset();  // root the new strategy at this path
    }

    // The recorded path becomes the constraint store every candidate drawn
    // from it shares.  A session still writes it into the rank logs at the
    // barrier, so there the store is a copy.
    sym::Path& recorded =
        run.ranks[static_cast<std::size_t>(run.focus)].log.path;
    wk.strategy->observe(
        std::make_shared<const sym::Path>(session ? recorded
                                                  : std::move(recorded)),
        wk.next_is_restart ? std::nullopt : wk.pending_depth);
    wk.next_is_restart = false;
    wk.pending_depth.reset();

    // ---- pick and solve the next constraint set (§II-A) ----
    // Thread CPU time, not wall clock: the solve phase runs entirely on
    // this thread, and CPU time does not double-count when workers overlap
    // (see DESIGN.md).
    const double solve_cpu_start = obs::thread_cpu_seconds();
    if (board != nullptr) {
      board->worker_phase(w, iter, obs::WorkerPhase::kSolve);
    }
    obs::ObsSpan plan_span(obs::Cat::kStrategy, "plan_next_test");
    solver::SolveCache* cache = wk.cache ? &*wk.cache : nullptr;
    // The registry is fixed until the next run: one set of MPI-semantics
    // constraints (indexed once) and domains serves every candidate.
    const solver::PredicateStore mpi_preds(
        wk.framework.mpi_constraints(focus_log));
    const solver::DomainMap domains = wk.framework.domains();
    bool planned = false;
    while (auto cand = wk.strategy->next()) {
      const solver::Predicate negated = cand->negated();
      const auto solve = [&](const solver::Solver& solver) {
        return solver.solve_incremental(*cand->path, cand->depth, mpi_preds,
                                        negated, domains,
                                        focus_log.inputs_used, cache);
      };
      const std::int64_t nodes_before = rec.solver_nodes;
      solver::SolveResult solved = solve(wk.solver);
      rec.solver_nodes += solved.nodes_searched;
      // Node-budget exhaustion is "unknown", not UNSAT: retry the same
      // query with a doubled budget before treating it as failed.
      for (int attempt = 0; !solved.sat && solved.budget_exhausted &&
                            attempt < options_.retry_max;
           ++attempt) {
        obs::instant(obs::Cat::kChaosRetry, "solver_retry", "attempt",
                     attempt);
        ++o.counts.transient_retries;
        event("retry")
            .str("kind", "solver")
            .num("attempt", attempt)
            .num("worker", w)
            .num("target", cand->target);
        m_retries.inc();
        ++iter_retries;
        solved = solve(
            solver::Solver({options_.solver_node_budget << (attempt + 1)}));
        rec.solver_nodes += solved.nodes_searched;
      }

      ++(solved.sat                ? o.sat
         : solved.budget_exhausted ? o.budget
                                   : o.unsat);
      event("solve")
          .num("depth", static_cast<std::int64_t>(cand->depth))
          .num("target", cand->target)
          .num("worker", w)
          .boolean("sat", solved.sat)
          .boolean("budget_exhausted", solved.budget_exhausted)
          .num("nodes", rec.solver_nodes - nodes_before)
          .num("slice_size", static_cast<std::int64_t>(solved.slice_size));
      if (solved.sat) {
        wk.plan = wk.framework.plan_next_test(solved, focus_log, wk.plan);
        wk.strategy->accepted(*cand);
        wk.pending_depth = cand->depth;
        wk.failures = 0;
        planned = true;
        break;
      }
      // The negation failed: remember the nearest miss for the branch it
      // was steering toward (UNSAT keeps the rendered constraint around
      // for --explain's never-taken report).
      if (cand->target >= 0) {
        o.misses.emplace_back(cand->target, negated.to_string(),
                              solved.budget_exhausted);
      }
      if (++wk.failures >= options_.restart_after_failures) break;
    }
    rec.solve_seconds = obs::thread_cpu_seconds() - solve_cpu_start;
    rec.retries = iter_retries;
    m_solve_us.observe(static_cast<std::int64_t>(rec.solve_seconds * 1e6));
    m_solver_nodes.observe(rec.solver_nodes);
    o.frontier =
        planned ? static_cast<std::int64_t>(rec.constraint_set_size) : 0;
    if (!planned) {
      // Strategy exhausted or solver stuck: restart with random inputs.
      ++o.counts.restarts;
      m_restarts.inc();
      wk.plan.inputs.clear();
      wk.plan.nprocs = options_.initial_nprocs;
      wk.plan.focus = options_.initial_focus;
      wk.failures = 0;
      wk.next_is_restart = true;
    }
    finish();
  };

  // ---- epochs ----
  int epoch_begin = start_iter;
  std::vector<Outcome> outcomes;  // one per ordinal of the current epoch
  std::exception_ptr apply_error;
  // A lone worker's view is the campaign itself once set: the apply step
  // adds exactly its finds.  N workers' views, and any view the fleet's
  // coverage reached, are reset at the barrier.
  bool views_stale = true;

  // Dealing: a worker's share of an epoch is inversely proportional to the
  // mean path length (+1) of its rows among the last N * kSliceOrdinals —
  // a stand-in for its iteration cost that depends only on the search,
  // since running and solving a test both scale with its path — with one
  // pseudo-row at the window's mean, so a worker without rows gets the
  // average.  A worker deep in long paths thus gets fewer ordinals, and
  // the others wait less at the barrier.  Smooth weighted round-robin
  // interleaves the shares; ties go to the next in turn from epoch_begin.
  const auto deal = [&] {
    const std::size_t n = pool.size(), rows = result.iterations.size();
    std::vector<double> cost(n, 0.0), share(n, 1.0), credit(n, 0.0);
    double cost_sum = 1.0, row_sum = 1.0, total = 0.0;
    result.iterations.visit(
        rows - std::min(rows, n * kSliceOrdinals),
        [&](const IterationRecord& r) {
          cost[static_cast<std::size_t>(r.worker)] +=
              r.constraint_set_size + 1.0;
          share[static_cast<std::size_t>(r.worker)] += 1.0;
          cost_sum += r.constraint_set_size + 1.0;
          row_sum += 1.0;
        });
    for (std::size_t w = 0; w < n; ++w) {
      total += share[w] /= cost[w] + cost_sum / row_sum;
    }
    for (Outcome& o : outcomes) {
      std::size_t best = n;
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t w = (static_cast<std::size_t>(epoch_begin) + j) % n;
        credit[w] += share[w] / total;
        if (best == n || credit[w] > credit[best]) best = w;
      }
      credit[best] -= 1.0;
      o.worker = static_cast<int>(best);
    }
  };

  // Sizes the epoch starting at epoch_begin: N * kSliceOrdinals (one for a
  // lone worker, whom batching only costs memory), cut short at the budget
  // and — when a session writes checkpoints — the next checkpoint multiple,
  // so snapshots fall on barriers.  The halt hook does not cut epochs: it
  // stops at the first boundary at or past its count, a boundary of the
  // uninterrupted plan, so a resume continues that very plan.  Then leases it
  // from the work source, which may grant fewer (none ends the campaign),
  // deals it, and shows stale views the merged campaign — each gets an
  // equal share of the --max-interleavings headroom, so together they
  // cannot pass the cap.
  const auto plan_epoch = [&] {
    int end = stop ? epoch_begin
                   : std::min(options_.iterations,
                              epoch_begin + (workers == 1
                                                 ? 1
                                                 : workers * kSliceOrdinals));
    const int interval = options_.checkpoint_interval;
    if (session && interval > 0) {
      end = std::min(end, (epoch_begin / interval + 1) * interval);
    }
    if (end > epoch_begin && options_.work_source != nullptr) {
      end = epoch_begin +
            std::max(options_.work_source->acquire(end - epoch_begin), 0);
      if (end == epoch_begin) {
        obs::JournalEvent(journal, "work_source_stop", epoch_begin);
        stop = true;
      }
    }
    outcomes.clear();
    outcomes.resize(static_cast<std::size_t>(std::max(end - epoch_begin, 0)));
    if (workers > 1) deal();
    const auto cap =
        static_cast<std::size_t>(std::max(options_.max_interleavings, 0));
    const std::size_t spare =
        cap - std::min(cap, result.interleavings_enqueued);
    for (std::size_t w = 0; views_stale && w < pool.size(); ++w) {
      Worker& wk = *pool[w];
      wk.coverage = coverage;
      wk.known_hangs = known_hangs;
      wk.bug_signatures.clear();
      for (const BugRecord& b : result.bugs) {
        wk.bug_signatures.insert(bug_signature(b.message));
      }
      wk.max_constraint_set = result.max_constraint_set;
      wk.interleavings.seen = interleaving_seen;
      wk.interleavings.enqueued = cap - spare / pool.size() -
                                  (w < spare % pool.size() ? 1 : 0);
    }
    views_stale = workers > 1;
  };

  // The apply step, on one thread while every worker waits at the
  // barrier: the epoch's outcomes in ordinal order, then a snapshot at the
  // boundary, then the next epoch.
  const auto apply_epoch = [&] {
    for (const auto& wk : pool) {
      if (wk->error) std::rethrow_exception(wk->error);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      for (Outcome& o : outcomes) {
        // A worker stops early only at a budget the campaign stops at too.
        if (!o.ran) continue;
        const int iter = epoch_begin + static_cast<int>(&o - outcomes.data());
        IterationRecord& rec = o.rec;

        // ---- record coverage and attribute the run (ledger) ----
        const std::size_t covered_before = coverage.covered_branches();
        coverage.merge(o.covered);
        result.max_constraint_set =
            std::max(result.max_constraint_set, rec.constraint_set_size);
        CoverageLedger::RunContext lctx;
        lctx.iteration = iter;
        lctx.nprocs = rec.nprocs;
        lctx.focus = rec.focus;
        lctx.inputs = &o.named_inputs;
        lctx.harvested = &o.harvested;
        lctx.interleaving = rec.interleaving;
        ledger.record_run(lctx, o.run);
        rec.covered_branches = coverage.covered_branches();
        m_covered.set(static_cast<std::int64_t>(rec.covered_branches));

        // ---- bugs, deduplicated by signature ----
        if (rt::is_fault(rec.outcome)) {
          const std::string sig = bug_signature(o.run.job_message());
          const auto known =
              std::find_if(result.bugs.begin(), result.bugs.end(),
                           [&](const BugRecord& b) {
                             return bug_signature(b.message) == sig;
                           });
          if (known != result.bugs.end()) {
            ++known->occurrences;
          } else if (o.bug) {
            m_bugs.inc();
            result.bugs.push_back(std::move(*o.bug));
            // Every bug in bugs.txt keeps its first iteration's rank logs.
            if (session) session->write_iteration(iter, o.run);
          }
        }

        // ---- what else the run did: counters, hangs, misses, events ----
        add_counts(result, o.counts);
        if (o.hang && std::find(known_hangs.begin(), known_hangs.end(),
                                *o.hang) == known_hangs.end()) {
          known_hangs.push_back(*o.hang);
        }
        interleaving_seen.insert(o.seen.begin(), o.seen.end());
        for (const auto& [target, text, budget] : o.misses) {
          ledger.record_solve_failure(target, iter, text, budget);
        }
        journal.commit_held(o.events);
        tele_sat += o.sat;
        tele_unsat += o.unsat;
        tele_budget += o.budget;
        if (o.frontier >= 0) tele_frontier = o.frontier;
        tele_exec_us += static_cast<std::int64_t>(rec.exec_seconds * 1e6);
        tele_solve_us += static_cast<std::int64_t>(rec.solve_seconds * 1e6);

        // ---- the iteration's row, rank logs and journal event ----
        result.iterations.push_back(rec);
        if (session) {
          session->append_iteration(rec);
          session->retain_iteration(iter, std::move(o.run));
        }
        note_iteration(rec, o.named_inputs,
                       rec.covered_branches - covered_before);

        // Bug-budget exhaustion (--max-bugs) ends the campaign gracefully:
        // the rest of the epoch is discarded, and summary/ledger/obs
        // exports below all still run.
        if (options_.max_bugs > 0 &&
            result.bugs.size() >= static_cast<std::size_t>(options_.max_bugs)) {
          obs::JournalEvent(journal, "bug_budget_exhausted", iter)
              .num("bugs", static_cast<std::int64_t>(result.bugs.size()));
          stop = true;
          break;
        }
      }
      report_work(/*final_report=*/false);
      if (options_.time_budget_seconds > 0 &&
          elapsed() >= options_.time_budget_seconds) {
        stop = true;
      }

      // ---- absorb the fleet's coverage (distributed intake) ----
      // Remote coverage reaches every view before the next epoch, so each
      // worker's strategy skips branches other shards already covered —
      // that is the frontier partition.
      if (options_.work_source != nullptr) {
        const std::vector<sym::BranchId> fleet_covered =
            options_.work_source->take_remote_coverage();
        const std::vector<std::uint64_t> fleet_iseen =
            options_.work_source->take_remote_interleavings();
        if (!fleet_covered.empty()) {
          rt::CoverageBitmap fleet(target_.table->num_branches());
          for (const sym::BranchId b : fleet_covered) fleet.mark(b);
          coverage.merge(fleet);
        }
        interleaving_seen.insert(fleet_iseen.begin(), fleet_iseen.end());
        views_stale |= !fleet_covered.empty() || !fleet_iseen.empty();
      }
    }
    journal.flush();
    if (board != nullptr && !status_path.empty()) {
      (void)obs::write_status_file(
          status_path, obs::render_status_json(board->snapshot()));
    }

    // ---- periodic checkpoint and halt hook, at the boundary ----
    // A stopped campaign skips them: its final snapshot follows.
    epoch_begin += static_cast<int>(outcomes.size());
    if (!stop) {
      const bool periodic =
          options_.checkpoint_interval > 0 &&
          result.iterations.size() %
                  static_cast<std::size_t>(options_.checkpoint_interval) ==
              0;
      const bool halt = options_.halt_after_iterations > 0 &&
                        epoch_begin - start_iter >=
                            options_.halt_after_iterations &&
                        epoch_begin < options_.iterations;
      if (periodic || halt) save_checkpoint(epoch_begin, false);
      if (halt) {
        halted = true;
        stop = true;
      }
    }
  };

  plan_epoch();
  // A worker the campaign can never reach gets no thread: when the first
  // epoch spans the whole remaining budget and no work source can grant
  // more, only the workers it deals ordinals to run, and the barrier waits
  // for them alone.  The others report done and keep their cursors.
  const bool one_epoch =
      options_.work_source == nullptr &&
      epoch_begin + static_cast<int>(outcomes.size()) >= options_.iterations;
  const auto reachable = [&](int w) {
    return !one_epoch ||
           std::any_of(outcomes.begin(), outcomes.end(),
                       [w](const Outcome& o) { return o.worker == w; });
  };
  int running = 0;
  int first = -1;  // the first running worker takes the calling thread
  for (int w = 0; w < workers; ++w) {
    if (reachable(w)) {
      ++running;
      if (first < 0) first = w;
    } else if (board != nullptr) {
      board->worker_phase(w, pool[static_cast<std::size_t>(w)]->last_iter,
                          obs::WorkerPhase::kDone);
    }
  }
  std::barrier sync(running,
                    [&]() noexcept {
                      try {
                        apply_epoch();
                        plan_epoch();
                      } catch (...) {
                        apply_error = std::current_exception();
                        outcomes.clear();
                      }
                    });
  // Worker w runs the ordinals dealt to it, in order.  It stops early when
  // the time budget runs out or when its own view already holds the bug
  // budget.
  const auto worker_loop = [&](int w) {
    obs::set_thread_track(w * (options_.max_procs + 1));
    Worker& wk = *pool[static_cast<std::size_t>(w)];
    for (; !outcomes.empty(); sync.arrive_and_wait()) {
      try {
        for (std::size_t k = 0; k < outcomes.size(); ++k) {
          if (outcomes[k].worker != w) continue;
          if ((options_.time_budget_seconds > 0 &&
               elapsed() >= options_.time_budget_seconds) ||
              (options_.max_bugs > 0 &&
               wk.bug_signatures.size() >=
                   static_cast<std::size_t>(options_.max_bugs))) {
            break;
          }
          run_ordinal(wk, w, epoch_begin + static_cast<int>(k), outcomes[k]);
        }
      } catch (...) {
        wk.error = std::current_exception();
      }
    }
    if (board != nullptr) {
      board->worker_phase(w, wk.last_iter, obs::WorkerPhase::kDone);
    }
  };
  if (running > 0) {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(running - 1));
    for (int w = first + 1; w < workers; ++w) {
      if (reachable(w)) threads.emplace_back(worker_loop, w);
    }
    worker_loop(first);
  }  // join
  obs::set_thread_track(0);
  if (apply_error) std::rethrow_exception(apply_error);
  // Stop serving before finalize: it mutates the result the /explain
  // endpoint reads, and it runs unlocked now that the workers are done.
  control_plane.stop();

  // Flush the final delta whatever way the workers stopped (budget, bug
  // budget, stop grant): the work source retains it for reconciliation
  // even when the coordinator is unreachable right now.
  report_work(/*final_report=*/true);

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
  result.iterations.shrink_to_fit();
  result.covered_branches = coverage.covered_branches();
  result.reachable_branches = coverage.reachable_branches();
  result.total_branches = coverage.total_branches();
  result.coverage_rate = coverage.rate();
  result.function_coverage = coverage.per_function();
  if (caching) {
    result.solver_cache_hits =
        static_cast<std::size_t>(cache_total(&solver::SolveCache::hits));
    result.solver_cache_misses =
        static_cast<std::size_t>(cache_total(&solver::SolveCache::misses));
  }
  result.total_seconds = elapsed();
  result.total_exec_seconds = 0.0;
  result.total_solve_seconds = 0.0;
  result.iterations.visit(0, [&](const IterationRecord& r) {
    result.total_exec_seconds += r.exec_seconds;
    result.total_solve_seconds += r.solve_seconds;
    if (r.outcome == rt::Outcome::kDeadlock) ++result.deadlocks_found;
    if (r.outcome == rt::Outcome::kOrphanMessage) {
      ++result.orphan_messages_found;
    }
  });
  // A simulated kill stops before the summary files exist, exactly like a
  // real SIGKILL would; only the checkpoint survives (the halt snapshot
  // already exported the observability artifacts with it).
  if (halted) return result;
  if (session) {
    session->write_summary(result);
    if (options_.checkpoint_interval > 0) {
      save_checkpoint(epoch_begin, /*final_snapshot=*/true);
    } else {
      session->write_ledger(ledger, *target_.table);
    }
  }
  campaign_span.finish();  // close before the dump so the span is in it
  journal.close();
  export_obs();
  return result;
}

}  // namespace compi
