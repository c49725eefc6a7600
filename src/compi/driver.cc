// The campaign engine (paper §II-A, Fig. 3).
//
// A campaign is `--workers` N workers, each running the full
// execute -> observe -> solve loop, whose results merge into ONE campaign:
// one CoverageTracker, attribution ledger, bug list, iteration log and
// event journal.  Each worker owns a private search line — strategy, test
// plan, solver, solver cache, Framework, Executor, variable registry and
// interleaving queue — so its runs depend only on what it is shown.
//
// Bulk-synchronous epochs (DESIGN.md §4.4.1): the EpochPlanner deals an
// epoch's ordinals to the workers; each Worker runs its share against a
// private view — the campaign at the epoch's start plus its own finds —
// writes no shared state and records one Outcome per ordinal; at the
// barrier the Applier applies the outcomes in ordinal order, and the
// Snapshotter writes the session.  So a campaign depends only on its seed
// and options, never on thread timing.  The WorkerPool owns the workers,
// their threads and the barrier.  The serial campaign (N = 1, the default)
// is the same loop with one worker on the calling thread, one ordinal per
// epoch.
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
using detail::Epoch;
using detail::mix_seed;

namespace {

using Clock = std::chrono::steady_clock;

/// The campaign's live metrics, registered in declaration order.
struct Metrics {
  explicit Metrics(int workers) {
    // Registered adjacently so the Prometheus writer emits one HELP/TYPE
    // pair for the whole compi_worker_last_progress_seconds family.
    for (int w = 0; w < workers; ++w) {
      worker_progress.push_back(&reg.gauge(
          "compi_worker_last_progress_seconds{worker=\"" +
              std::to_string(w) + "\"}",
          "Campaign-relative time of each worker's last completed iteration"));
    }
  }

  obs::Registry& reg = obs::registry();
  obs::Counter& iterations =
      reg.counter("compi_iterations_total", "Campaign iterations executed");
  obs::Counter& restarts =
      reg.counter("compi_restarts_total", "Restarts with fresh random inputs");
  obs::Counter& retries = reg.counter(
      "compi_transient_retries_total",
      "Transient-failure retries (timeouts, solver budget exhaustion)");
  obs::Counter& bugs =
      reg.counter("compi_bugs_total", "Distinct bugs discovered");
  obs::Gauge& covered =
      reg.gauge("compi_covered_branches", "Cumulative covered branches");
  obs::Histogram& exec_us = reg.histogram(
      "compi_exec_us", "Per-iteration target execution time (us)");
  obs::Histogram& solve_us = reg.histogram(
      "compi_solve_us", "Per-iteration constraint solving time (us)");
  obs::Histogram& solver_nodes = reg.histogram(
      "compi_solver_nodes", "Per-iteration solver search nodes expanded");
  obs::Counter& sandbox_signal_kills = reg.counter(
      "compi_sandbox_signal_kills_total",
      "Sandboxed children killed by a real signal (SIGSEGV, SIGABRT, ...)");
  obs::Counter& sandbox_hang_kills = reg.counter(
      "compi_sandbox_hang_kills_total",
      "Sandboxed children SIGKILLed by the hang watchdog");
  obs::Counter& sandbox_harvest_bytes = reg.counter(
      "compi_sandbox_harvest_bytes_total",
      "Bytes salvaged from sandboxed children (pipe stream + coverage map)");
  obs::Counter& warm_spawns = reg.counter(
      "compi_warm_spawns_total",
      "Iterations run by the fork server's persistent executor");
  obs::Counter& cold_forks = reg.counter(
      "compi_cold_forks_total",
      "Iterations that fell back to a cold per-iteration fork");
  obs::Counter& server_restarts = reg.counter(
      "compi_fork_server_restarts_total",
      "Fork-server deaths absorbed by a restart");
  obs::Histogram& spawn_us = reg.histogram(
      "compi_spawn_us", "Warm-spawn latency, spawn frame to reap (us)");
  obs::Counter& cache_hits = reg.counter(
      "compi_solver_cache_hits_total",
      "Solver memoization cache hits (query answered without searching)");
  obs::Counter& cache_misses = reg.counter(
      "compi_solver_cache_misses_total",
      "Solver memoization cache misses (full backtracking search ran)");
  obs::Counter& cache_evictions = reg.counter(
      "compi_solver_cache_evictions_total",
      "Solver memoization cache LRU evictions");
  obs::Counter& interleavings = reg.counter(
      "compi_interleavings_total",
      "Reordered wildcard matchings replayed (--explore-matchings)");
  obs::Gauge& frontier_depth = reg.gauge(
      "compi_frontier_depth",
      "Unexplored negation candidates currently queued by the search");
  obs::Gauge& interleavings_pending = reg.gauge(
      "compi_interleavings_pending",
      "Reordered wildcard matchings queued and awaiting replay");
  std::vector<obs::Gauge*> worker_progress;
};

/// What every stage reads: the target, the options, the campaign clock,
/// the live metrics, the event journal and the status board.
struct Context {
  Context(const TargetInfo& target, const CampaignOptions& options)
      : target(target), options(options), m(workers) {
    // ---- live status board (--status-file heartbeat + GET /status) ----
    // The board is the single writer both the file heartbeat and the
    // control plane render from; when serving without an explicit
    // --status-file the heartbeat lands in the session directory so `compi
    // top <file>` and the CI smoke test can discover the ephemeral port.
    const bool serving = options.serve_port >= 0;
    if (serving && status_path.empty() && logged) {
      status_path =
          (std::filesystem::path(options.log_dir) / "status.json").string();
    }
    if (serving || !status_path.empty()) {
      board = std::make_shared<obs::StatusBoard>(workers, options.iterations);
      board->set_campaign(options.initial_nprocs, options.initial_focus);
    }
  }

  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  const TargetInfo& target;
  const CampaignOptions& options;
  const int workers = std::max(options.workers, 1);
  const bool logged = !options.log_dir.empty();  // a session is written
  /// Two-phase search (paper §II-B): pure DFS for the first
  /// dfs_phase_iterations, then BoundedDFS with a bound derived from the
  /// longest observed constraint set.  Other strategies run single-phase.
  const bool two_phase = options.search == SearchKind::kBoundedDfs;
  /// Solver memoization (--solver-cache=N entries; 0 = off, the default):
  /// one cache per worker.
  const bool caching = options.solver_cache_entries > 0;
  Metrics m;
  obs::Journal journal;
  std::string status_path = options.status_file;
  std::shared_ptr<obs::StatusBoard> board;  // null: no heartbeat, no serve
  const Clock::time_point start = Clock::now();
};

/// What one ordinal did, recorded by its worker for the apply step.
struct Outcome {
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

/// Running totals for the stall-diagnosis engine and the telemetry
/// piggyback (work_source.h): cumulative solver outcome mix and phase time.
struct Telemetry {
  void add(const Outcome& o) {
    sat += o.sat;
    unsat += o.unsat;
    budget += o.budget;
    if (o.frontier >= 0) frontier = o.frontier;
    exec_us += static_cast<std::int64_t>(o.rec.exec_seconds * 1e6);
    solve_us += static_cast<std::int64_t>(o.rec.solve_seconds * 1e6);
  }
  [[nodiscard]] obs::DiagnosisInput diagnosis(double elapsed,
                                              double window) const {
    obs::DiagnosisInput in;
    in.elapsed_seconds = elapsed;
    in.frontier_depth = frontier;
    in.interleavings_pending = interleavings_pending;
    in.solver_sat = sat;
    in.solver_unsat = unsat;
    in.solver_budget = budget;
    in.plateau_window_seconds = window;
    return in;
  }
  /// The telemetry of a work report; an unknown frontier reads as the
  /// last row's constraint set.
  [[nodiscard]] WorkDelta work(double elapsed,
                               const IterationHistory& rows) const {
    WorkDelta d;
    if (frontier >= 0) {
      d.frontier_depth = frontier;
    } else if (!rows.empty()) {
      d.frontier_depth =
          static_cast<std::int64_t>(rows.back().constraint_set_size);
    }
    d.elapsed_us = static_cast<std::int64_t>(elapsed * 1e6);
    d.interleavings_pending = interleavings_pending;
    d.solver_sat = sat;
    d.solver_unsat = unsat;
    d.solver_budget = budget;
    d.exec_us = exec_us;
    d.solve_us = solve_us;
    return d;
  }

  std::int64_t sat = 0, unsat = 0, budget = 0, exec_us = 0, solve_us = 0;
  /// Live frontier depth: the last planned constraint set's size, or 0 the
  /// moment a worker's strategy ran dry (the frontier-starved signal).
  std::int64_t frontier = -1;
  /// Reordered matchings queued across the workers, as of the barrier.
  std::int64_t interleavings_pending = 0;
};

/// One worker: its search line, which persists across epochs, plus its
/// private view of the campaign, which the Applier resets each epoch.  It
/// writes no campaign state: what a run teaches the campaign goes into the
/// run's Outcome.
struct Worker : ckpt::SearchLine {
  Worker(Context& cx, int id)
      : cx(cx),
        id(id),
        framework(registry, cx.options.max_procs, cx.options.framework,
                  cx.options.conflict_resolution),
        solver({cx.options.solver_node_budget}),
        executor(*cx.target.table, cx.options),
        coverage(*cx.target.table) {
    if (cx.caching) {
      cache.emplace(static_cast<std::size_t>(cx.options.solver_cache_entries));
    }
    set_strategy(false, static_cast<std::size_t>(-1));
    plan.nprocs = cx.options.initial_nprocs;
    plan.focus = cx.options.initial_focus;
    interleavings.next_id = id + 1;
    interleavings.id_stride = cx.workers;
  }

  void set_strategy(bool bounded, std::size_t bound) {
    if (cx.two_phase) {
      scfg.kind = bounded ? SearchKind::kBoundedDfs : SearchKind::kDfs;
    } else {
      scfg.kind = cx.options.search;
    }
    scfg.bound = bound;
    // A lone worker searches with the campaign seed itself; N workers get
    // decorrelated seeds, so they explore N diverging search lines instead
    // of racing down the same one.
    scfg.seed = cx.workers == 1
                    ? cx.options.seed
                    : mix_seed(cx.options.seed,
                               0x5eed0000ULL + static_cast<std::uint64_t>(id));
    scfg.table = cx.target.table;
    scfg.coverage = &coverage;
    strategy = make_strategy(scfg);
    bounded_phase = bounded;
  }

  /// Continues the search line of `cur`.  False when the cursor is
  /// unusable: another strategy, a state that does not parse, or a plan,
  /// strategy path or pending interleaving naming a variable outside the
  /// cursor's registry.
  [[nodiscard]] bool load(const ckpt::WorkerCursor& cur) {
    static_cast<ckpt::SearchLine&>(*this) = cur;
    set_strategy(cx.two_phase && cur.bounded_phase, cur.depth_bound);
    for (const rt::VarMeta& meta : cur.registry) {
      registry.intern(meta.key, meta.kind, meta.domain, meta.cap,
                      meta.comm_index);
    }
    const std::size_t vars = registry.size();
    const auto known = [vars](const solver::Assignment& a) {
      return std::all_of(a.begin(), a.end(), [vars](const auto& entry) {
        return entry.first >= 0 && static_cast<std::size_t>(entry.first) < vars;
      });
    };
    std::istringstream blob(cur.strategy_state);
    if (cur.strategy_name != strategy->name() ||
        !strategy->load_state(blob, vars) || !known(plan.inputs)) {
      return false;
    }
    for (const PendingInterleaving& p : cur.pending_interleavings) {
      if (!known(p.inputs)) return false;
    }
    interleavings.queue.assign(cur.pending_interleavings.begin(),
                               cur.pending_interleavings.end());
    interleavings.next_id = cur.next_interleaving_id;
    return true;
  }

  [[nodiscard]] ckpt::WorkerCursor cursor() const {
    ckpt::WorkerCursor cur;
    static_cast<ckpt::SearchLine&>(cur) = *this;
    cur.depth_bound = scfg.bound;
    cur.strategy_name = strategy->name();
    std::ostringstream blob;
    strategy->save_state(blob);
    cur.strategy_state = blob.str();
    cur.registry = registry.all();
    cur.pending_interleavings.assign(interleavings.queue.begin(),
                                     interleavings.queue.end());
    cur.next_interleaving_id = interleavings.next_id;
    return cur;
  }

  /// Runs this worker's ordinals of `epoch`, in order.  It stops early when
  /// the time budget runs out or when its own view already holds the bug
  /// budget.
  void run_share(const Epoch& epoch, std::vector<Outcome>& outcomes) {
    const CampaignOptions& opt = cx.options;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      if (epoch.worker[k] != id) continue;
      if ((opt.time_budget_seconds > 0 &&
           cx.elapsed() >= opt.time_budget_seconds) ||
          (opt.max_bugs > 0 &&
           bug_signatures.size() >= static_cast<std::size_t>(opt.max_bugs))) {
        break;
      }
      outcomes[k] = run_ordinal(epoch.begin + static_cast<int>(k));
    }
  }

  /// One ordinal, on this worker's thread.  Reads only the worker's own
  /// state and view; everything the campaign learns from the run goes into
  /// the Outcome for the apply step.
  [[nodiscard]] Outcome run_ordinal(int iter);

  Context& cx;
  const int id;

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

 private:
  /// A journal event held in the outcome, for the apply step to commit.
  obs::JournalEvent event(std::string_view type, Outcome& o) {
    return obs::JournalEvent(cx.journal, type, o.rec.iteration, &o.events);
  }
  minimpi::RunResult execute(const minimpi::LaunchSpec& spec, Outcome& o) {
    ExecReport x;
    minimpi::RunResult r = executor.run(spec, x);
    account(x, o);
    o.harvested = std::move(x.sandbox.harvested);
    return r;
  }
  void account(const ExecReport& x, Outcome& o);
  minimpi::RunResult launch(minimpi::LaunchSpec& spec, Outcome& o);
  void record(const minimpi::RunResult& run, const solver::Assignment& inputs,
              Outcome& o);
  void log_bug(const minimpi::RunResult& run, const minimpi::LaunchSpec& spec,
               const solver::Assignment& inputs, Outcome& o);
  bool observe(minimpi::RunResult& run, Outcome& o);
  void solve_next(const rt::TestLog& focus_log, Outcome& o);
};

Outcome Worker::run_ordinal(int iter) {
  const CampaignOptions& opt = cx.options;
  obs::ObsSpan iter_span(obs::Cat::kDriver, "iteration", "iter", iter);
  Outcome o;
  o.ran = true;
  last_iter = iter;
  if (cx.board != nullptr) {
    cx.board->worker_phase(id, iter, obs::WorkerPhase::kExecute);
  }
  IterationRecord& rec = o.rec;
  rec.iteration = iter;
  rec.worker = id;

  // ---- pop a pending reordered matching, if any ----
  // Interleavings are frontier items: each consumes one iteration,
  // replaying its parent run's inputs under the prescribed match plan.
  // The planned input-driven test simply runs on the next iteration.
  std::optional<PendingInterleaving> pending;
  if (opt.explore_matchings && !interleavings.queue.empty()) {
    pending = std::move(interleavings.queue.front());
    interleavings.queue.pop_front();
    cx.m.interleavings.inc();
    ++o.counts.interleavings_run;
    event("interleaving", o)
        .num("id", pending->id)
        .num("plan_size", static_cast<std::int64_t>(pending->plan.size()))
        .num("nprocs", pending->nprocs)
        .num("focus", pending->focus)
        .num("worker", id);
  }
  const solver::Assignment& inputs = pending ? pending->inputs : plan.inputs;
  rec.nprocs = pending ? pending->nprocs : plan.nprocs;
  rec.focus = pending ? pending->focus : plan.focus;
  rec.interleaving = pending ? pending->id : -1;
  rec.restart = next_is_restart;

  // ---- launch the planned test (§III-D) ----
  minimpi::LaunchSpec spec;
  spec.program = cx.target.program;
  spec.nprocs = rec.nprocs;
  spec.focus = rec.focus;
  spec.one_way = opt.one_way;
  spec.registry = &registry;
  spec.inputs = &inputs;
  spec.rng_seed = mix_seed(opt.seed, static_cast<std::uint64_t>(iter));
  spec.reduction = opt.reduction;
  spec.mark_mpi_vars = opt.framework;
  spec.timeout = opt.test_timeout;
  spec.track_base = id * (opt.max_procs + 1);
  if (pending) spec.match_plan = pending->plan;
  minimpi::RunResult run = launch(spec, o);
  cx.m.iterations.inc();
  record(run, inputs, o);
  if (rt::is_fault(rec.outcome)) log_bug(run, spec, inputs, o);

  // ---- interleaving replays don't drive the search ----
  // The reordered matching's job was its outcome verdict and any new
  // coverage, both recorded above (plus the alternatives it forked).
  // The strategy neither observes its path nor solves from it; the
  // already-planned input-driven test runs on the next iteration.
  if (!pending && observe(run, o)) solve_next(run.focus_log(), o);

  // Without a session no rank log is written: the apply step needs only
  // each rank's coverage, so the rest goes now instead of staying alive
  // until the barrier.
  if (!cx.logged) {
    for (minimpi::RankResult& r : run.ranks) {
      rt::TestLog coverage_only;
      coverage_only.covered = std::move(r.log.covered);
      r.log = std::move(coverage_only);
    }
  }
  o.run = std::move(run);
  return o;
}

// Campaign-wide accounting of one Executor::run, on its worker's thread:
// live metrics now, counters and journal events into the outcome.
void Worker::account(const ExecReport& x, Outcome& o) {
  CampaignCounters& n = o.counts;
  if (x.server_deaths > 0) {
    n.fork_server_restarts += x.server_deaths;
    cx.m.server_restarts.inc(static_cast<std::int64_t>(x.server_deaths));
    obs::instant(obs::Cat::kSandbox, "server_restart");
    event("fork_server_restart", o)
        .num("restarts", static_cast<std::int64_t>(x.server_restarts))
        .boolean("degraded", x.server_degraded)
        .num("worker", id);
  }
  if (x.warm) {
    ++n.warm_spawns;
    cx.m.warm_spawns.inc();
    cx.m.spawn_us.observe(static_cast<std::int64_t>(x.spawn_seconds * 1e6));
  } else if (x.cold) {
    ++n.cold_forks;
    cx.m.cold_forks.inc();
  }
  const sandbox::SandboxStats& st = x.sandbox;
  if (!st.forked) return;
  ++n.sandbox_runs;
  n.sandbox_harvest_bytes += st.harvest_bytes;
  cx.m.sandbox_harvest_bytes.inc(static_cast<std::int64_t>(st.harvest_bytes));
  if (st.signal_kill) {
    ++n.sandbox_signal_kills;
    cx.m.sandbox_signal_kills.inc();
    obs::instant(obs::Cat::kSandbox, "signal_kill", "signal", st.term_signal);
    event("sandbox_kill", o)
        .str("kind", "signal")
        .num("signal", st.term_signal)
        .num("worker", id)
        .num("harvested_branches",
             static_cast<std::int64_t>(st.harvested.size()));
  }
  if (st.hang_kill) {
    ++n.sandbox_hang_kills;
    cx.m.sandbox_hang_kills.inc();
    obs::instant(obs::Cat::kSandbox, "hang_kill");
    event("sandbox_kill", o)
        .str("kind", "hang")
        .num("worker", id)
        .num("harvested_branches",
             static_cast<std::int64_t>(st.harvested.size()));
  }
}

// A per-test timeout is transient until proven otherwise: retry with a
// doubled step budget (and a re-mixed chaos seed, so injected noise is
// re-rolled) before letting it count as a hang.  The timeout itself stays:
// it is virtual job time, which a rerun does not change.
minimpi::RunResult Worker::launch(minimpi::LaunchSpec& spec, Outcome& o) {
  const CampaignOptions& opt = cx.options;
  for (int attempt = 0;; ++attempt) {
    if (opt.chaos.enabled()) {
      spec.chaos = opt.chaos;
      spec.chaos.seed =
          mix_seed(opt.chaos.seed,
                   static_cast<std::uint64_t>(o.rec.iteration) * 64 +
                       static_cast<std::uint64_t>(attempt));
      event("chaos_armed", o)
          .num("attempt", attempt)
          .num("worker", id)
          .num("seed", static_cast<std::int64_t>(spec.chaos.seed));
    }
    spec.step_budget = opt.step_budget << attempt;
    minimpi::RunResult run = execute(spec, o);
    if (run.job_outcome() != rt::Outcome::kTimeout) return run;
    // Already proven to hang: don't burn retries again.
    const std::string sig = bug_signature(run.job_message());
    bool known = std::find(known_hangs.begin(), known_hangs.end(), sig) !=
                 known_hangs.end();
    if (!known && attempt >= opt.retry_max) {
      known_hangs.push_back(sig);
      o.hang = sig;
      known = true;
    }
    if (known) return run;
    obs::instant(obs::Cat::kChaosRetry, "timeout_retry", "attempt", attempt);
    ++o.counts.transient_retries;
    event("retry", o)
        .str("kind", "timeout")
        .num("worker", id)
        .num("attempt", attempt);
    cx.m.retries.inc();
    ++o.rec.retries;
  }
}

void Worker::record(const minimpi::RunResult& run,
                    const solver::Assignment& inputs, Outcome& o) {
  const rt::TestLog& focus_log = run.focus_log();
  IterationRecord& rec = o.rec;
  rec.outcome = run.job_outcome();
  rec.constraint_set_size = focus_log.path.size();
  rec.exec_seconds = run.wall_seconds;
  cx.m.exec_us.observe(static_cast<std::int64_t>(rec.exec_seconds * 1e6));

  // ---- coverage for the view, named inputs for the ledger ----
  // All recorders' coverage, or the focus's only for No_Fwk.  The named
  // assignment is the focus's actually-used values, or the planned
  // assignment when the focus died before flushing its log (same
  // fallback the bug records use).
  const solver::Assignment& used =
      !focus_log.inputs_used.empty() ? focus_log.inputs_used : inputs;
  for (const auto& [var, value] : used) {
    o.named_inputs[registry.meta(var).key] = value;
  }
  o.covered = cx.options.framework ? run.merged_coverage() : focus_log.covered;
  coverage.merge(o.covered);
  max_constraint_set = std::max(max_constraint_set, focus_log.path.size());
  if (cx.options.explore_matchings) {
    // Fork from the actually-used inputs when the focus recorded them: an
    // interleaving replays at a different iteration (different RNG
    // stream), so the planned assignment alone would re-roll any value
    // the parent drew randomly.
    InterleavingFrontier& fr = interleavings;
    fr.pruned = fr.capped = 0;
    const std::size_t added =
        enqueue_alternatives(fr, run.match_trace, used, rec.nprocs, rec.focus,
                             cx.options.max_interleavings);
    o.counts.interleavings_enqueued = added;
    o.counts.interleavings_pruned = fr.pruned;
    o.counts.interleavings_capped = fr.capped;
    for (auto p = fr.queue.end() - static_cast<std::ptrdiff_t>(added);
         p != fr.queue.end(); ++p) {
      o.seen.push_back(plan_hash(p->plan));
    }

    // ---- wildcard matchings: journal the decisions ----
    for (const minimpi::MatchRecord& mr : run.match_trace) {
      event("match_choice", o)
          .num("rank", mr.rank)
          .num("seq", mr.seq)
          .num("src", mr.chosen_src)
          .num("feasible", static_cast<std::int64_t>(mr.feasible.size()))
          .num("interleaving", rec.interleaving);
    }
  }
  if (rec.outcome == rt::Outcome::kDeadlock) {
    event("deadlock", o)
        .str("cycle", run.job_message())
        .num("interleaving", rec.interleaving);
  }
}

// ---- log error-inducing inputs (§V) ----
void Worker::log_bug(const minimpi::RunResult& run,
                     const minimpi::LaunchSpec& spec,
                     const solver::Assignment& inputs, Outcome& o) {
  const std::string msg = run.job_message();
  if (!bug_signatures.insert(bug_signature(msg)).second) return;
  BugRecord bug;
  bug.first_iteration = o.rec.iteration;
  bug.occurrences = 1;
  bug.outcome = o.rec.outcome;
  bug.message = msg;
  bug.inputs = run.focus_log().inputs_used;
  // A sandboxed child killed by a real signal dies before flushing its
  // log, so the focus's inputs_used is empty: fall back to the planned
  // assignment — those ARE the error-inducing inputs.
  if (bug.inputs.empty()) bug.inputs = inputs;
  for (const auto& [var, value] : bug.inputs) {
    bug.named_inputs[registry.meta(var).key] = value;
  }
  bug.nprocs = o.rec.nprocs;
  bug.focus = o.rec.focus;
  // The full decision vector — not just the forced prefix — so the replay
  // pins EVERY wildcard choice of the failing run.
  bug.decisions.reserve(run.match_trace.size());
  for (const minimpi::MatchRecord& mr : run.match_trace) {
    bug.decisions.push_back({mr.rank, mr.seq, mr.chosen_src});
  }
  if (cx.options.confirm_bugs) {
    // Replay once with the same inputs and NO injected noise; a bug that
    // fails to reproduce is environment-induced, hence flaky.  Same funnel
    // as the discovery run: replaying a real SIGSEGV in-process would kill
    // the tester itself.
    minimpi::LaunchSpec confirm = spec;
    confirm.chaos = minimpi::FaultPlan{};
    confirm.inputs = &bug.inputs;
    confirm.match_plan = bug.decisions;
    confirm.step_budget = cx.options.step_budget;
    std::vector<sym::BranchId> harvested = std::move(o.harvested);
    const minimpi::RunResult rerun = execute(confirm, o);
    o.harvested = std::move(harvested);
    bug.flaky = rerun.job_outcome() != bug.outcome;
  }
  o.bug = std::move(bug);
}

/// Hands the run's path to the strategy; false when the run cannot drive
/// the search and the same test is re-planned instead.
bool Worker::observe(minimpi::RunResult& run, Outcome& o) {
  // ---- graceful degradation: the focus died before recording ----
  // A fault (often injected) killed the focus before any symbolic branch
  // was logged, so this run can't drive the search.  Re-plan the same test
  // with the focus moved to another rank instead of wasting the iteration;
  // bounded so a fault on EVERY rank still terminates.
  const bool focus_dead =
      run.focus >= 0 &&
      static_cast<std::size_t>(run.focus) < run.ranks.size() &&
      run.ranks[run.focus].outcome != rt::Outcome::kOk;
  if (focus_dead && run.focus_log().path.empty() && plan.nprocs > 1 &&
      consecutive_replans < plan.nprocs - 1) {
    plan.focus = (plan.focus + 1) % plan.nprocs;
    ++consecutive_replans;
    ++o.counts.focus_replans;
    return false;
  }
  consecutive_replans = 0;

  // ---- two-phase switch: estimate the BoundedDFS depth bound ----
  const CampaignOptions& opt = cx.options;
  if (cx.two_phase && !bounded_phase &&
      o.rec.iteration + 1 >= opt.dfs_phase_iterations) {
    const std::size_t bound =
        opt.depth_bound > 0
            ? static_cast<std::size_t>(opt.depth_bound)
            : static_cast<std::size_t>(
                  static_cast<double>(max_constraint_set) * opt.bound_slack +
                  10);
    o.counts.depth_bound_used = bound;
    set_strategy(true, bound);
    pending_depth.reset();  // root the new strategy at this path
  }

  // The recorded path becomes the constraint store every candidate drawn
  // from it shares.  A session still writes it into the rank logs at the
  // barrier, so there the store is a copy.
  sym::Path& recorded = run.ranks[static_cast<std::size_t>(run.focus)].log.path;
  strategy->observe(std::make_shared<const sym::Path>(
                        cx.logged ? recorded : std::move(recorded)),
                    next_is_restart ? std::nullopt : pending_depth);
  next_is_restart = false;
  pending_depth.reset();
  return true;
}

// ---- pick and solve the next constraint set (§II-A) ----
// Thread CPU time, not wall clock: the solve phase runs entirely on this
// thread, and CPU time does not double-count when workers overlap (see
// DESIGN.md).
void Worker::solve_next(const rt::TestLog& focus_log, Outcome& o) {
  const CampaignOptions& opt = cx.options;
  IterationRecord& rec = o.rec;
  const double solve_cpu_start = obs::thread_cpu_seconds();
  if (cx.board != nullptr) {
    cx.board->worker_phase(id, rec.iteration, obs::WorkerPhase::kSolve);
  }
  obs::ObsSpan plan_span(obs::Cat::kStrategy, "plan_next_test");
  solver::SolveCache* const memo = cache ? &*cache : nullptr;
  // The registry is fixed until the next run: one set of MPI-semantics
  // constraints (indexed once) and domains serves every candidate.
  const solver::PredicateStore mpi_preds(framework.mpi_constraints(focus_log));
  const solver::DomainMap domains = framework.domains();
  bool planned = false;
  while (auto cand = strategy->next()) {
    const solver::Predicate negated = cand->negated();
    const auto solve = [&](const solver::Solver& with) {
      return with.solve_incremental(*cand->path, cand->depth, mpi_preds,
                                    negated, domains, focus_log.inputs_used,
                                    memo);
    };
    const std::int64_t nodes_before = rec.solver_nodes;
    solver::SolveResult solved = solve(solver);
    rec.solver_nodes += solved.nodes_searched;
    // Node-budget exhaustion is "unknown", not UNSAT: retry the same query
    // with a doubled budget before treating it as failed.
    for (int attempt = 0; !solved.sat && solved.budget_exhausted &&
                          attempt < opt.retry_max;
         ++attempt) {
      obs::instant(obs::Cat::kChaosRetry, "solver_retry", "attempt", attempt);
      ++o.counts.transient_retries;
      event("retry", o)
          .str("kind", "solver")
          .num("attempt", attempt)
          .num("worker", id)
          .num("target", cand->target);
      cx.m.retries.inc();
      ++rec.retries;
      solved = solve(solver::Solver({opt.solver_node_budget << (attempt + 1)}));
      rec.solver_nodes += solved.nodes_searched;
    }

    ++(solved.sat ? o.sat : solved.budget_exhausted ? o.budget : o.unsat);
    event("solve", o)
        .num("depth", static_cast<std::int64_t>(cand->depth))
        .num("target", cand->target)
        .num("worker", id)
        .boolean("sat", solved.sat)
        .boolean("budget_exhausted", solved.budget_exhausted)
        .num("nodes", rec.solver_nodes - nodes_before)
        .num("slice_size", static_cast<std::int64_t>(solved.slice_size));
    if (solved.sat) {
      plan = framework.plan_next_test(solved, focus_log, plan);
      strategy->accepted(*cand);
      pending_depth = cand->depth;
      failures = 0;
      planned = true;
      break;
    }
    // The negation failed: remember the nearest miss for the branch it was
    // steering toward (UNSAT keeps the rendered constraint around for
    // --explain's never-taken report).
    if (cand->target >= 0) {
      o.misses.emplace_back(cand->target, negated.to_string(),
                            solved.budget_exhausted);
    }
    if (++failures >= opt.restart_after_failures) break;
  }
  rec.solve_seconds = obs::thread_cpu_seconds() - solve_cpu_start;
  cx.m.solve_us.observe(static_cast<std::int64_t>(rec.solve_seconds * 1e6));
  cx.m.solver_nodes.observe(rec.solver_nodes);
  o.frontier = planned ? static_cast<std::int64_t>(rec.constraint_set_size) : 0;
  if (!planned) {
    // Strategy exhausted or solver stuck: restart with random inputs.
    ++o.counts.restarts;
    cx.m.restarts.inc();
    plan.inputs.clear();
    plan.nprocs = opt.initial_nprocs;
    plan.focus = opt.initial_focus;
    failures = 0;
    next_is_restart = true;
  }
}

/// The campaign's workers: built fresh or restored from a snapshot's
/// cursors, started before any thread exists, run around one barrier.
struct WorkerPool {
  explicit WorkerPool(Context& cx) : cx(cx) {
    for (int w = 0; w < cx.workers; ++w) {
      workers.push_back(std::make_unique<Worker>(cx, w));
    }
  }
  // Workers go newest first.  Each fork server inherits the ctl write ends
  // of the servers forked before it, so an older executor sees its ctl
  // close only once every newer server has exited; in creation order each
  // older one would wait out ForkServer's stop grace and be SIGKILLed.
  ~WorkerPool() {
    while (!workers.empty()) workers.pop_back();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Replaces the fresh pool with the search lines of `c`'s cursors.
  /// False, leaving the pool fresh, when `c` was taken under another seed
  /// or --workers, or when a cursor is unusable (Worker::load).
  [[nodiscard]] bool restore(const ckpt::CampaignCheckpoint& c) {
    if (c.seed != cx.options.seed ||
        c.worker_cursors.size() != workers.size()) {
      return false;
    }
    std::vector<std::unique_ptr<Worker>> restored;
    for (const ckpt::WorkerCursor& cur : c.worker_cursors) {
      restored.push_back(std::make_unique<Worker>(
          cx, static_cast<int>(restored.size())));
      if (!restored.back()->load(cur)) return false;
    }
    workers.swap(restored);
    return true;
  }

  /// Forks every worker's fork server child.  Call before any worker or
  /// control-plane thread exists: a fork taken while another thread holds
  /// an allocator lock hands the child that lock, held forever.
  void start() {
    for (const auto& wk : workers) wk->executor.start(cx.target.program);
  }

  /// Runs the epochs: each reachable worker runs its share of `epoch` into
  /// `outcomes` and waits at the barrier, whose completion `between`
  /// applies them and plans the next epoch in place.  An empty epoch ends
  /// the run.  Rethrows the first error of a worker or of `between`.
  void run(const Epoch& epoch, std::vector<Outcome>& outcomes,
           const std::function<void()>& between);

  /// The workers' solver caches, summed.
  struct CacheTotals {
    std::int64_t hits = 0, misses = 0, evictions = 0;
  };
  [[nodiscard]] CacheTotals cache_totals() const {
    CacheTotals t;
    for (const auto& wk : workers) {
      if (!wk->cache) continue;
      t.hits += wk->cache->hits();
      t.misses += wk->cache->misses();
      t.evictions += wk->cache->evictions();
    }
    return t;
  }
  [[nodiscard]] std::int64_t interleavings_pending() const {
    std::size_t n = 0;
    for (const auto& wk : workers) n += wk->interleavings.queue.size();
    return static_cast<std::int64_t>(n);
  }

  Context& cx;
  std::vector<std::unique_ptr<Worker>> workers;
};

void WorkerPool::run(const Epoch& epoch, std::vector<Outcome>& outcomes,
                     const std::function<void()>& between) {
  // A worker the campaign can never reach gets no thread: when the first
  // epoch spans the whole remaining budget and no work source can grant
  // more, only the workers it deals ordinals to run, and the barrier waits
  // for them alone.  The others report done and keep their cursors.
  const bool one_epoch = cx.options.work_source == nullptr &&
                         epoch.end() >= cx.options.iterations;
  std::vector<int> running;  // the first takes the calling thread
  for (int w = 0; w < cx.workers; ++w) {
    if (!one_epoch || std::count(epoch.worker.begin(), epoch.worker.end(), w)) {
      running.push_back(w);
    } else if (cx.board != nullptr) {
      cx.board->worker_phase(w, workers[static_cast<std::size_t>(w)]->last_iter,
                             obs::WorkerPhase::kDone);
    }
  }
  if (running.empty()) return;
  std::exception_ptr error;
  std::barrier sync(static_cast<std::ptrdiff_t>(running.size()),
                    [&]() noexcept {
                      try {
                        for (const auto& wk : workers) {
                          if (wk->error) std::rethrow_exception(wk->error);
                        }
                        between();
                      } catch (...) {
                        error = std::current_exception();
                        outcomes.clear();
                      }
                    });
  const auto loop = [&](int w) {
    obs::set_thread_track(w * (cx.options.max_procs + 1));
    Worker& wk = *workers[static_cast<std::size_t>(w)];
    for (; !outcomes.empty(); sync.arrive_and_wait()) {
      try {
        wk.run_share(epoch, outcomes);
      } catch (...) {
        wk.error = std::current_exception();
      }
    }
    if (cx.board != nullptr) {
      cx.board->worker_phase(w, wk.last_iter, obs::WorkerPhase::kDone);
    }
  };
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 1; i < running.size(); ++i) {
      threads.emplace_back(loop, running[i]);
    }
    loop(running.front());
  }  // join
  obs::set_thread_track(0);
  if (error) std::rethrow_exception(error);
}

/// The only writer of campaign state: coverage, ledger, rows, bugs, known
/// hangs, the interleaving sleep set, the counters and the telemetry.  It
/// applies each epoch's outcomes in ordinal order on one thread, while
/// every worker waits at the barrier, under the mutex the control plane's
/// /explain handler takes.
struct Applier {
  Applier(Context& cx, SessionWriter* session)
      : cx(cx),
        session(session),
        coverage(*cx.target.table),
        ledger(*cx.target.table),
        diagnosis(&cx.journal) {
    result.workers_used = static_cast<std::size_t>(cx.workers);
  }

  /// Continues the campaign state a snapshot holds.
  void restore(ckpt::CampaignCheckpoint& c) {
    merge_covered(c.covered);
    result.iterations = std::move(c.iterations);
    result.bugs = std::move(c.bugs);
    static_cast<CampaignCounters&>(result) = c;
    result.resumed = true;
    known_hangs = std::move(c.known_hang_signatures);
    interleaving_seen.insert(c.interleaving_seen.begin(),
                             c.interleaving_seen.end());
    if (!c.ledger_state.empty()) {
      std::istringstream ledger_blob(c.ledger_state);
      // A failed read keeps the fresh ledger: attribution restarts but the
      // campaign itself is unaffected.
      (void)ledger.read(ledger_blob);
    }
  }

  /// Applies an epoch's outcomes, reports to the work source and absorbs
  /// the fleet's coverage.  Sets `stop` at the bug or time budget.
  void apply(const Epoch& epoch, std::vector<Outcome>& outcomes,
             const WorkerPool& pool) {
    // The workers' queues and caches hold still until the next epoch.
    tele.interleavings_pending = pool.interleavings_pending();
    const WorkerPool::CacheTotals cache =
        cx.caching && cx.board != nullptr ? pool.cache_totals()
                                          : WorkerPool::CacheTotals{};
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t k = 0; k < outcomes.size() && !stop; ++k) {
      // A worker stops early only at a budget the campaign stops at too.
      if (outcomes[k].ran) {
        apply_one(epoch.begin + static_cast<int>(k), outcomes[k], cache);
      }
    }
    report(/*final_report=*/false);
    const CampaignOptions& opt = cx.options;
    if (opt.time_budget_seconds > 0 &&
        cx.elapsed() >= opt.time_budget_seconds) {
      stop = true;
    }

    // ---- absorb the fleet's coverage (distributed intake) ----
    // Remote coverage reaches every view before the next epoch, so each
    // worker's strategy skips branches other shards already covered —
    // that is the frontier partition.
    if (opt.work_source != nullptr) {
      const std::vector<sym::BranchId> fleet_covered =
          opt.work_source->take_remote_coverage();
      const std::vector<std::uint64_t> fleet_iseen =
          opt.work_source->take_remote_interleavings();
      if (!fleet_covered.empty()) merge_covered(fleet_covered);
      interleaving_seen.insert(fleet_iseen.begin(), fleet_iseen.end());
      views_stale |= !fleet_covered.empty() || !fleet_iseen.empty();
    }
  }

  /// Shows stale views the merged campaign.  Each gets an equal share of
  /// the --max-interleavings headroom, so together they cannot pass it.
  void show(WorkerPool& pool) {
    if (!views_stale) return;
    const std::size_t n = pool.workers.size();
    const auto cap =
        static_cast<std::size_t>(std::max(cx.options.max_interleavings, 0));
    const std::size_t spare =
        cap - std::min(cap, result.interleavings_enqueued);
    for (std::size_t w = 0; w < n; ++w) {
      Worker& wk = *pool.workers[w];
      wk.coverage = coverage;
      wk.known_hangs = known_hangs;
      wk.bug_signatures.clear();
      for (const BugRecord& b : result.bugs) {
        wk.bug_signatures.insert(bug_signature(b.message));
      }
      wk.max_constraint_set = result.max_constraint_set;
      wk.interleavings.seen = interleaving_seen;
      wk.interleavings.enqueued = cap - spare / n - (w < spare % n ? 1 : 0);
    }
    views_stale = n > 1;
  }

  /// The final work report, stall verdict and totals.
  void finish(const WorkerPool& pool);

  Context& cx;
  SessionWriter* const session;  // null for an unlogged campaign
  CampaignResult result;
  CoverageTracker coverage;
  CoverageLedger ledger;
  std::vector<std::string> known_hangs;  // signatures proven to really hang
  /// The campaign's interleaving sleep set; the pending matchings
  /// themselves are queued per worker.
  std::unordered_set<std::uint64_t> interleaving_seen;
  Telemetry tele;
  // Stall diagnosis (obs/diagnosis.h): fed once per iteration, journals
  // verdict transitions, and leaves its final verdict on the result.  Pure
  // computation over local state — obs-off and serve-off sessions see the
  // identical artifact bytes they always did.
  obs::DiagnosisEngine diagnosis;
  bool stop = false;
  /// A lone worker's view is the campaign itself once set: the apply step
  /// adds exactly its finds.  N workers' views, and any view the fleet's
  /// coverage reached, are reset at the barrier.
  bool views_stale = true;
  std::mutex mu;

 private:
  void merge_covered(const std::vector<sym::BranchId>& ids) {
    rt::CoverageBitmap bitmap(cx.target.table->num_branches());
    for (const sym::BranchId b : ids) bitmap.mark(b);
    coverage.merge(bitmap);
  }
  void apply_one(int iter, Outcome& o, const WorkerPool::CacheTotals& cache);
  void note_iteration(const Outcome& o, std::size_t new_branches,
                      const WorkerPool::CacheTotals& cache);
  void report(bool final_report);
};

void Applier::apply_one(int iter, Outcome& o,
                        const WorkerPool::CacheTotals& cache) {
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
  cx.m.covered.set(static_cast<std::int64_t>(rec.covered_branches));

  // ---- bugs, deduplicated by signature ----
  if (rt::is_fault(rec.outcome)) {
    const std::string sig = bug_signature(o.run.job_message());
    const auto known = std::find_if(
        result.bugs.begin(), result.bugs.end(),
        [&](const BugRecord& b) { return bug_signature(b.message) == sig; });
    if (known != result.bugs.end()) {
      ++known->occurrences;
    } else if (o.bug) {
      cx.m.bugs.inc();
      result.bugs.push_back(std::move(*o.bug));
      // Every bug in bugs.txt keeps its first iteration's rank logs.
      if (session) session->write_iteration(iter, o.run);
    }
  }

  // ---- what else the run did: counters, hangs, misses, events ----
  add_counts(result, o.counts);
  if (o.hang && std::find(known_hangs.begin(), known_hangs.end(), *o.hang) ==
                    known_hangs.end()) {
    known_hangs.push_back(*o.hang);
  }
  interleaving_seen.insert(o.seen.begin(), o.seen.end());
  for (const auto& [target, text, budget] : o.misses) {
    ledger.record_solve_failure(target, iter, text, budget);
  }
  cx.journal.commit_held(o.events);
  tele.add(o);

  // ---- the iteration's row, rank logs and journal event ----
  result.iterations.push_back(rec);
  if (session) {
    session->append_iteration(rec);
    session->retain_iteration(iter, std::move(o.run));
  }
  note_iteration(o, rec.covered_branches - covered_before, cache);

  // Bug-budget exhaustion (--max-bugs) ends the campaign gracefully: the
  // rest of the epoch is discarded, and summary/ledger/obs exports all
  // still run.
  const int max_bugs = cx.options.max_bugs;
  if (max_bugs > 0 &&
      result.bugs.size() >= static_cast<std::size_t>(max_bugs)) {
    obs::JournalEvent(cx.journal, "bug_budget_exhausted", iter)
        .num("bugs", static_cast<std::int64_t>(result.bugs.size()));
    stop = true;
  }
}

// One "iteration" journal event per iterations.csv row, plus the stall
// diagnosis and the status board.
void Applier::note_iteration(const Outcome& o, std::size_t new_branches,
                             const WorkerPool::CacheTotals& cache) {
  const IterationRecord& rec = o.rec;
  obs::JournalEvent(cx.journal, "iteration", rec.iteration)
      .num("nprocs", rec.nprocs)
      .num("focus", rec.focus)
      .str("outcome", rt::to_string(rec.outcome))
      .boolean("restart", rec.restart)
      .num("constraint_set_size",
           static_cast<std::int64_t>(rec.constraint_set_size))
      .num("covered_branches", static_cast<std::int64_t>(rec.covered_branches))
      .num("new_branches", static_cast<std::int64_t>(new_branches))
      .real("exec_seconds", rec.exec_seconds)
      .real("solve_seconds", rec.solve_seconds)
      .num("solver_nodes", rec.solver_nodes)
      .num("retries", rec.retries)
      .num("worker", rec.worker)
      .num("interleaving", rec.interleaving)
      .inputs(o.named_inputs);
  const obs::Diagnosis diag = diagnosis.update(
      tele.diagnosis(cx.elapsed(), cx.options.stall_window_seconds),
      static_cast<std::int64_t>(rec.covered_branches), rec.iteration);
  obs::StatusBoard* const board = cx.board.get();
  if (board == nullptr) return;
  board->set_diagnosis(obs::to_string(diag.kind), diag.detail,
                       diag.stalled_seconds);
  board->record_iteration(rec.iteration, rec.covered_branches,
                          result.bugs.size(), cx.elapsed(), rec.nprocs,
                          rec.focus, rt::to_string(rec.outcome), rec.worker);
  board->set_depths(rec.constraint_set_size,
                    static_cast<std::size_t>(tele.interleavings_pending));
  if (cx.caching) board->set_solver_cache(cache.hits, cache.misses);
  cx.m.frontier_depth.set(static_cast<std::int64_t>(rec.constraint_set_size));
  cx.m.interleavings_pending.set(tele.interleavings_pending);
  cx.m.worker_progress[static_cast<std::size_t>(rec.worker)]->set(
      static_cast<std::int64_t>(cx.elapsed()));
}

// Distributed intake: one report per applied epoch, carrying FULL local
// state and a CUMULATIVE count (see work_source.h) so replays after
// reconnects or reclaimed leases are idempotent.  The ledger blob is
// rendered lazily — the work source only pays for it when it actually
// transmits — by a closure that runs inside report() on this thread and
// takes no locks of its own.
void Applier::report(bool final_report) {
  if (cx.options.work_source == nullptr) return;
  WorkDelta d = tele.work(cx.elapsed(), result.iterations);
  d.final_report = final_report;
  d.iterations_completed = static_cast<std::int64_t>(result.iterations.size());
  d.covered = coverage.bitmap().covered_ids();
  d.interleaving_seen.assign(interleaving_seen.begin(),
                             interleaving_seen.end());
  d.bugs = result.bugs;
  d.ledger_blob = [this] {
    std::ostringstream blob;
    ledger.write(blob);
    return blob.str();
  };
  cx.options.work_source->report(d);
}

void Applier::finish(const WorkerPool& pool) {
  tele.interleavings_pending = pool.interleavings_pending();
  // Flush the final delta whatever way the workers stopped (budget, bug
  // budget, stop grant): the work source retains it for reconciliation
  // even when the coordinator is unreachable right now.
  report(/*final_report=*/true);

  // Final stall verdict for the report and --explain: one more sample at
  // the terminal state (the workers may have stopped between samples).
  const obs::Diagnosis diag = diagnosis.update(
      tele.diagnosis(cx.elapsed(), cx.options.stall_window_seconds),
      static_cast<std::int64_t>(coverage.covered_branches()),
      result.iterations.empty() ? 0 : result.iterations.back().iteration);
  result.stall_kind = obs::to_string(diag.kind);
  result.stall_detail = diag.detail;
  result.stalled_seconds = diag.stalled_seconds;

  result.iterations.shrink_to_fit();
  result.covered_branches = coverage.covered_branches();
  result.reachable_branches = coverage.reachable_branches();
  result.total_branches = coverage.total_branches();
  result.coverage_rate = coverage.rate();
  result.function_coverage = coverage.per_function();
  if (cx.caching) {
    const WorkerPool::CacheTotals cache = pool.cache_totals();
    result.solver_cache_hits = static_cast<std::size_t>(cache.hits);
    result.solver_cache_misses = static_cast<std::size_t>(cache.misses);
  }
  result.total_seconds = cx.elapsed();
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
}

/// The session's durable side: the SessionWriter with its append-only
/// streams and session log, the status file and the metrics/trace
/// exports.  Its destructor is the end-of-campaign export, so the journal
/// tail and the exports land on disk whatever way the campaign ends —
/// budget, bug-budget exhaustion, a thrown fatal error.  The simulated-kill
/// path is the one exception (a real SIGKILL flushes nothing); it relies
/// on its final checkpoint's export instead, which the destructor repeats
/// harmlessly.
struct Snapshotter {
  Snapshotter(Context& cx, const WorkerPool& pool) : cx(cx), pool(pool) {
    if (cx.logged) {
      session.emplace(cx.options.log_dir, cx.options.keep_rank_logs,
                      cx.options.checkpoint_interval > 0);
    }
  }
  ~Snapshotter() {
    cx.journal.close();
    export_obs();
  }
  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Opens the session's append-only streams (iterations.csv, the coverage
  /// timeline and, with --journal, the event journal), so a crash
  /// mid-campaign loses at most the rows past the last snapshot.  A resume
  /// cuts them back to the snapshot's commit point `at` first and returns
  /// the stall verdict the kept journal ends on ("" when none).
  std::string open_streams(const ckpt::StreamLengths* at,
                           const IterationHistory& rows) {
    if (!session) return {};
    obs::Journal* const journal = cx.options.journal ? &cx.journal : nullptr;
    if (at != nullptr) return session->resume_iterations(*at, rows, journal);
    session->begin_iterations({}, journal);
    return {};
  }

  /// Flushes the journal and rewrites the status file (--status-file).
  void publish_status() {
    cx.journal.flush();
    if (cx.board != nullptr && !cx.status_path.empty()) {
      (void)obs::write_status_file(
          cx.status_path, obs::render_status_json(cx.board->snapshot()));
    }
  }

  // Snapshot at a barrier, from the parked workers: every
  // --checkpoint-interval rows, and at a halt.  The snapshot holds no
  // history: it commits every iterations.csv row and journal event so far,
  // and the session log it lands in carries the rows since the previous
  // one.  The final snapshot, taken after summary.txt, points at the
  // budget, so a resume of a finished campaign runs nothing; it skips the
  // fdatasync, as the summary files it follows have none either.
  void save(int next_iteration, bool final_snapshot, const Applier& state) {
    if (!session) return;
    obs::ObsSpan span(obs::Cat::kCheckpoint, "save_checkpoint", "iteration",
                      next_iteration);
    ckpt::CampaignCheckpoint c;
    c.seed = cx.options.seed;
    c.next_iteration = final_snapshot
                           ? std::max(next_iteration, cx.options.iterations)
                           : next_iteration;
    c.finished = final_snapshot;
    for (const auto& wk : pool.workers) {
      c.worker_cursors.push_back(wk->cursor());
    }
    static_cast<CampaignCounters&>(c) = state.result;
    c.history_rows = state.result.iterations.size();
    c.bugs = state.result.bugs;
    c.covered = state.coverage.bitmap().covered_ids();
    c.known_hang_signatures = state.known_hangs;
    c.interleaving_seen.assign(state.interleaving_seen.begin(),
                               state.interleaving_seen.end());
    // Hash-set iteration order is arbitrary: sort so identical campaigns
    // write byte-identical snapshots.
    std::sort(c.interleaving_seen.begin(), c.interleaving_seen.end());
    std::ostringstream ledger_blob;
    state.ledger.write(ledger_blob);
    c.ledger_state = ledger_blob.str();
    session->write_checkpoint(std::move(c), /*sync=*/!final_snapshot);
    export_obs();
  }
  void at_barrier(int next_iteration, bool halt, const Applier& state) {
    const auto interval = static_cast<std::size_t>(
        std::max(cx.options.checkpoint_interval, 0));
    if (halt ||
        (interval > 0 && state.result.iterations.size() % interval == 0)) {
      save(next_iteration, false, state);
    }
  }

  /// summary.txt, bugs.txt and ledger.csv, then the final snapshot.
  void finish(int next_iteration, const Applier& state) {
    if (!session) return;
    session->write_summary(state.result);
    session->write_ledger(state.ledger, *cx.target.table);
    if (cx.options.checkpoint_interval > 0) {
      save(next_iteration, /*final_snapshot=*/true, state);
    }
  }

  // Dumps metrics.prom / trace.json next to the session (or into the
  // working directory when no log dir is configured).  Called at every
  // checkpoint and at campaign end, so a killed campaign still leaves
  // observability artifacts behind.  The registry's counters are
  // cumulative across campaigns in one process (bench loops): the cache
  // counters sync by delta, so each export reflects this campaign's totals
  // without double counting.
  void export_obs() {
    namespace fs = std::filesystem;
    const CampaignOptions& opt = cx.options;
    const fs::path base = opt.log_dir.empty() ? "." : fs::path(opt.log_dir);
    Metrics& m = cx.m;
    if (cx.caching) {
      const WorkerPool::CacheTotals t = pool.cache_totals();
      m.cache_hits.inc(t.hits - m.cache_hits.value());
      m.cache_misses.inc(t.misses - m.cache_misses.value());
      m.cache_evictions.inc(t.evictions - m.cache_evictions.value());
    }
    if (opt.metrics) {
      std::ofstream out(base / "metrics.prom");
      m.reg.write_prometheus(out);
    }
    if (opt.trace) {
      std::ofstream out(base / "trace.json");
      obs::tracer().write_chrome_json(out);
    }
  }

  Context& cx;
  const WorkerPool& pool;
  std::optional<SessionWriter> session;
};

/// Serves the live campaign (--serve): /status from the board, /explain
/// from the Applier's ledger, /healthz from the workers' progress.
void serve_campaign(serve::ControlPlane& control_plane, Context& cx,
                    Applier& state, Snapshotter& snap) {
  const std::shared_ptr<obs::StatusBoard> board = cx.board;
  serve::ControlPlaneConfig cp;
  cp.port = cx.options.serve_port;
  cp.registry = &cx.m.reg;
  cp.journal = &cx.journal;
  cp.status = [board] { return board->snapshot(); };
  cp.explain = [&cx, &state] {
    // /explain renders a bounded summary from the live ledger under the
    // campaign mutex — the lock the apply step holds while it writes.
    std::lock_guard<std::mutex> lock(state.mu);
    std::vector<std::string> lines;
    (void)cx.journal.tap_since(0, lines);
    return explain_live(state.ledger, *cx.target.table,
                        state.result.iterations, lines);
  };
  // /healthz: live while a worker completed an iteration recently.  The
  // threshold scales with the hang timeout — one test may legitimately sit
  // for hang_timeout_ms (times retries) before the sandbox reaps it, so
  // only a multiple of that is a genuine stall.
  const double stall_threshold = std::max(
      30.0, 3.0 * static_cast<double>(cx.options.hang_timeout_ms) / 1000.0);
  cp.healthy = [board, stall_threshold, &cx] {
    const obs::StatusSnapshot s = board->snapshot();
    double last = 0.0;
    bool active = false;
    for (const obs::WorkerStatus& w : s.worker_status) {
      if (w.phase == obs::WorkerPhase::kDone) continue;
      active = true;
      last = std::max(last, w.last_progress_seconds);
    }
    const double stall = cx.elapsed() - last;
    std::ostringstream detail;
    if (!active || stall <= stall_threshold) {
      detail << "progressing: iteration " << s.iteration << ", "
             << s.covered_branches << " branches";
      return std::make_pair(true, detail.str());
    }
    detail << "stalled: no progress for " << static_cast<int>(stall)
           << "s (threshold " << static_cast<int>(stall_threshold) << "s)";
    if (!s.diagnosis_detail.empty()) detail << "; " << s.diagnosis_detail;
    return std::make_pair(false, detail.str());
  };
  if (control_plane.start(std::move(cp))) {
    board->set_serve_port(control_plane.port());
    // Publish the bound port immediately (iteration -1): with --serve=0
    // this is how clients discover the ephemeral port.
    snap.publish_status();
  }
}

}  // namespace

namespace detail {

EpochPlanner::EpochPlanner(const CampaignOptions& options, bool logged)
    : options_(options),
      workers_(std::max(options.workers, 1)),
      interval_(logged ? std::max(options.checkpoint_interval, 0) : 0) {}

Epoch EpochPlanner::plan(int begin, const IterationHistory& rows) const {
  Epoch epoch{begin, {}, false};
  int end = cut(begin);
  if (end > begin && options_.work_source != nullptr) {
    end = begin + std::max(options_.work_source->acquire(end - begin), 0);
    epoch.source_stopped = end == begin;
  }
  const int ordinals = std::max(end - begin, 0);
  epoch.worker = workers_ > 1
                     ? deal(begin, ordinals, rows)
                     : std::vector<int>(static_cast<std::size_t>(ordinals), 0);
  return epoch;
}

int EpochPlanner::cut(int begin) const {
  int end = std::min(options_.iterations,
                     begin + (workers_ == 1 ? 1 : workers_ * kSliceOrdinals));
  if (interval_ > 0) end = std::min(end, (begin / interval_ + 1) * interval_);
  return end;
}

// The mean path length stands in for a worker's iteration cost, since
// running and solving a test both scale with its path, and it depends only
// on the search.  A worker deep in long paths thus gets fewer ordinals, and
// the others wait less at the barrier.
std::vector<int> EpochPlanner::deal(int begin, int ordinals,
                                    const IterationHistory& rows) const {
  const auto n = static_cast<std::size_t>(workers_);
  std::vector<double> cost(n, 0.0), share(n, 1.0), credit(n, 0.0);
  double cost_sum = 1.0, row_sum = 1.0, total = 0.0;
  rows.visit(rows.size() - std::min(rows.size(), n * kSliceOrdinals),
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
  std::vector<int> worker(static_cast<std::size_t>(std::max(ordinals, 0)));
  for (int& dealt : worker) {
    std::size_t best = n;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t w = (static_cast<std::size_t>(begin) + j) % n;
      credit[w] += share[w] / total;
      if (best == n || credit[w] > credit[best]) best = w;
    }
    credit[best] -= 1.0;
    dealt = static_cast<int>(best);
  }
  return worker;
}

bool EpochPlanner::halts_at(int start, int end) const {
  return options_.halt_after_iterations > 0 &&
         end - start >= options_.halt_after_iterations &&
         end < options_.iterations;
}

}  // namespace detail

Campaign::Campaign(const TargetInfo& target, CampaignOptions options)
    : target_(target), options_(std::move(options)) {}

CampaignResult Campaign::run() {
  // Worker w owns trace tracks [w*(max_procs+1), (w+1)*(max_procs+1)): its
  // driver loop on the base track, its MiniMPI rank fibers above it.
  obs::set_thread_track(0);
  if (options_.trace) {
    obs::tracer().configure(options_.trace_buffer_kb);
    obs::tracer().set_enabled(true);
  }
  Context cx(target_, options_);
  WorkerPool pool(cx);
  obs::ObsSpan campaign_span(obs::Cat::kDriver, "campaign");
  Snapshotter snap(cx, pool);
  Applier applier(cx, snap.session ? &*snap.session : nullptr);

  // ---- resume a checkpointed session (crash recovery) ----
  // A snapshot the pool cannot restore counts as unreadable: the resume
  // falls back to the snapshot before it, else starts fresh.
  int start = 0;
  std::optional<ckpt::StreamLengths> resume_at;  // the commit point
  if (options_.resume && cx.logged) {
    if (auto c = read_checkpoint(options_.log_dir,
                                 [&pool](const ckpt::CampaignCheckpoint& s) {
                                   return pool.restore(s);
                                 })) {
      applier.restore(*c);
      start = c->next_iteration;
      resume_at = c->streams;
    }
  }
  pool.start();
  const std::string verdict = snap.open_streams(
      resume_at ? &*resume_at : nullptr, applier.result.iterations);
  if (const auto kind = obs::stall_kind_from_string(verdict)) {
    applier.diagnosis.resume(*kind);
  }

  // The control plane is declared AFTER the stages on purpose: reverse
  // destruction stops the server thread (and with it every live endpoint)
  // before the Applier it reads goes and the final export runs — on every
  // exit path, including thrown fatal errors.  The happy path also stops
  // it explicitly once the workers are done, before finish.
  serve::ControlPlane control_plane;
  if (options_.serve_port >= 0 && cx.board != nullptr) {
    serve_campaign(control_plane, cx, applier, snap);
  }

  // ---- epochs ----
  const detail::EpochPlanner planner(options_, cx.logged);
  Epoch epoch;
  std::vector<Outcome> outcomes;  // one per ordinal of the current epoch
  bool halted = false;
  const auto plan = [&](int begin) {
    epoch = applier.stop ? Epoch{begin, {}, false}
                         : planner.plan(begin, applier.result.iterations);
    if (epoch.source_stopped) {
      obs::JournalEvent(cx.journal, "work_source_stop", begin);
      applier.stop = true;
    }
    outcomes.clear();
    outcomes.resize(epoch.worker.size());
    applier.show(pool);
  };
  plan(start);
  // The apply step, on one thread while every worker waits at the barrier:
  // the epoch's outcomes in ordinal order, then a snapshot at the boundary,
  // then the next epoch.
  pool.run(epoch, outcomes, [&] {
    applier.apply(epoch, outcomes, pool);
    snap.publish_status();
    // ---- periodic checkpoint and halt hook, at the boundary ----
    // A stopped campaign skips them: its final snapshot follows.
    if (!applier.stop) {
      halted = planner.halts_at(start, epoch.end());
      snap.at_barrier(epoch.end(), halted, applier);
      applier.stop = halted;
    }
    plan(epoch.end());
  });
  // Stop serving before finish: it mutates the result the /explain
  // endpoint reads, and it runs unlocked now that the workers are done.
  control_plane.stop();
  applier.finish(pool);
  // A simulated kill stops before the summary files exist, exactly like a
  // real SIGKILL would; only the session log survives (the halt snapshot
  // already exported the observability artifacts with it).
  if (halted) return std::move(applier.result);
  snap.finish(epoch.begin, applier);
  campaign_span.finish();  // close before the final export so it is in it
  return std::move(applier.result);
}

}  // namespace compi
