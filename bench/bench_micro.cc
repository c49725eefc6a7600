// Micro-benchmarks (google-benchmark) for the substrate hot paths: the
// constraint solver, the concolic branch event, and MiniMPI messaging.
// These are not paper tables; they quantify the costs the cost-control
// techniques (two-way instrumentation, reduction) are managing.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "compi/driver.h"
#include "compi/fixed_run.h"
#include "compi/ledger.h"
#include "minimpi/launcher.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sandbox/fork_server.h"
#include "sandbox/supervisor.h"
#include "sandbox/wire.h"
#include "solver/solver.h"
#include "solver/store.h"
#include "targets/targets.h"

namespace {

using namespace compi;

void BM_SolverChain(benchmark::State& state) {
  // x0 < x1 < ... < x_{k-1} <= 100, negate the last: a coupled chain the
  // incremental solver must re-solve wholesale.
  const int k = static_cast<int>(state.range(0));
  solver::PredicateStore path;
  solver::Assignment prev;
  for (int i = 0; i + 1 < k; ++i) {
    path.push_back(solver::make_lt(i, i + 1));
    prev[i] = i;
  }
  prev[k - 1] = k - 1;
  const solver::Predicate negated = solver::make_le_const(k - 1, 100).negated();
  const solver::PredicateStore side;
  solver::Solver s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.solve_incremental(path, path.size(), side, negated, {}, prev));
  }
}
BENCHMARK(BM_SolverChain)->Arg(4)->Arg(16)->Arg(64);

/// One incremental query through the store API: negate `negated` after
/// the whole of `path`, with no side predicates.
struct StoreQuery {
  solver::PredicateStore path;
  solver::Predicate negated;
  solver::DomainMap domains;
  solver::Assignment prev;

  [[nodiscard]] solver::SolveResult solve(const solver::Solver& s) const {
    static const solver::PredicateStore kNoSide;
    return s.solve_incremental(path, path.size(), kNoSide, negated, domains,
                               prev);
  }
};

/// k independent bounds; the negation's slice is one predicate.
StoreQuery independent_query(int k) {
  StoreQuery q;
  for (int i = 0; i < k; ++i) {
    q.path.push_back(solver::make_le_const(i, 50));
    q.prev[i] = 0;
  }
  q.negated = solver::make_le_const(k - 1, 50).negated();
  return q;
}

/// The shape of a long SUSY candidate: a 2000-entry path whose negation
/// depends on a coupled slice of 600 entries (repeated bound checks and
/// differences over 8 shared inputs), the other 1400 independent.
StoreQuery deep_prefix_query() {
  constexpr int kPath = 2000;
  constexpr int kCoupled = 600;
  constexpr int kShared = 8;
  StoreQuery q;
  for (int v = 0; v < kShared; ++v) {
    q.domains[v] = {0, 4096};
    q.prev[v] = 10;
  }
  for (int i = 0; i < kCoupled; ++i) {
    const int v = i % kShared;
    if (i % 3 == 0) {
      q.path.push_back(solver::make_le_const(v, 1000 + i));
    } else if (i % 3 == 1) {
      q.path.push_back(solver::make_ge_const(v, 1));
    } else {
      solver::LinearExpr diff(v, 1, -5);  // x_v - x_{v+1} - 5 <= 0
      diff.add_term((v + 1) % kShared, -1);
      q.path.push_back({diff, solver::CompareOp::kLe});
    }
  }
  for (int v = kShared; q.path.size() < kPath; ++v) {
    q.path.push_back(solver::make_ge_const(v, 0));
    q.prev[v] = v;
  }
  q.negated = solver::make_lt_const(0, 1000).negated();  // x0 >= 1000
  return q;
}

void BM_SolverIndependent(benchmark::State& state) {
  // Many independent constraints: dependency slicing makes the
  // incremental solve O(slice), not O(set) — read in place from the store,
  // the prefix's length costs nothing.
  const StoreQuery q = independent_query(static_cast<int>(state.range(0)));
  solver::Solver s;
  for (auto _ : state) benchmark::DoNotOptimize(q.solve(s));
}
BENCHMARK(BM_SolverIndependent)->Arg(16)->Arg(256)->Arg(2048);

void BM_SolveDeepPrefix(benchmark::State& state) {
  const StoreQuery q = deep_prefix_query();
  solver::Solver s;
  for (auto _ : state) benchmark::DoNotOptimize(q.solve(s));
}
BENCHMARK(BM_SolveDeepPrefix);

void BM_BranchEventHeavy(benchmark::State& state) {
  rt::BranchTable table;
  table.add_site("f", "s");
  table.finalize();
  rt::VarRegistry registry;
  solver::Assignment inputs;
  rt::ContextParams params;
  params.mode = rt::Mode::kHeavy;
  params.table = &table;
  params.registry = &registry;
  params.inputs = &inputs;
  rt::RuntimeContext ctx(params);
  const sym::SymInt x = ctx.input_int("x");
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.branch(0, sym::SymInt(i++ % 100) < x));
  }
}
BENCHMARK(BM_BranchEventHeavy);

void BM_BranchEventLight(benchmark::State& state) {
  rt::BranchTable table;
  table.add_site("f", "s");
  table.finalize();
  rt::VarRegistry registry;
  solver::Assignment inputs;
  rt::ContextParams params;
  params.mode = rt::Mode::kLight;
  params.table = &table;
  params.registry = &registry;
  params.inputs = &inputs;
  rt::RuntimeContext ctx(params);
  const sym::SymInt x = ctx.input_int("x");
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.branch(0, sym::SymInt(i++ % 100) < x));
  }
}
BENCHMARK(BM_BranchEventLight);

void BM_MiniMpiPingPong(benchmark::State& state) {
  // Whole-job cost of a ping-pong of `range(0)` iterations on 2 ranks.
  const int iters = static_cast<int>(state.range(0));
  const TargetInfo target = targets::make_mini_imb_target(10'000);
  auto in = targets::mini_imb_defaults(/*benchmark=*/0, iters);
  in["msglog_min"] = 10;
  in["msglog_max"] = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fixed(target, in, {.nprocs = 2}));
  }
}
BENCHMARK(BM_MiniMpiPingPong)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_MiniMpiAllreduce8(benchmark::State& state) {
  const TargetInfo target = targets::make_mini_imb_target(10'000);
  auto in = targets::mini_imb_defaults(/*benchmark=*/5, 50);
  in["npmin"] = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fixed(target, in, {.nprocs = 8}));
  }
}
BENCHMARK(BM_MiniMpiAllreduce8)->Unit(benchmark::kMillisecond);

void BM_HplSolveScaling(benchmark::State& state) {
  // The N^3 cost curve behind Fig. 6 / input capping.
  const int n = static_cast<int>(state.range(0));
  const TargetInfo target = targets::make_mini_hpl_target(n);
  const auto in = targets::mini_hpl_defaults(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fixed(target, in, {.nprocs = 8}));
  }
}
BENCHMARK(BM_HplSolveScaling)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

// ---- observability overhead ----
// The claim the obs layer makes: an off-path span costs one relaxed load
// and a branch (within noise of the empty loop below), counters one
// relaxed add, and an on-path span two clock reads plus a ring store.

void BM_ObsNoop(benchmark::State& state) {
  // Empty-loop baseline the disabled-path numbers are compared against.
  std::int64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x += 1);
  }
}
BENCHMARK(BM_ObsNoop);

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter& c =
      obs::registry().counter("bench_counter", "micro-bench counter");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram& h =
      obs::registry().histogram("bench_histogram", "micro-bench histogram");
  std::int64_t v = 1;
  for (auto _ : state) {
    h.observe(v = (v * 7 + 3) & 0xffff);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::tracer().set_enabled(false);
  std::int64_t x = 0;
  for (auto _ : state) {
    obs::ObsSpan span(obs::Cat::kDriver, "bench_span", "arg", x);
    benchmark::DoNotOptimize(x += 1);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::tracer().configure(256);
  obs::tracer().set_enabled(true);
  std::int64_t x = 0;
  for (auto _ : state) {
    obs::ObsSpan span(obs::Cat::kDriver, "bench_span", "arg", x);
    benchmark::DoNotOptimize(x += 1);
  }
  obs::tracer().set_enabled(false);
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsInstantDisabled(benchmark::State& state) {
  obs::tracer().set_enabled(false);
  std::int64_t x = 0;
  for (auto _ : state) {
    obs::instant(obs::Cat::kMpi, "bench_instant", "arg", x);
    benchmark::DoNotOptimize(x += 1);
  }
}
BENCHMARK(BM_ObsInstantDisabled);

void BM_ObsInstantEnabled(benchmark::State& state) {
  obs::tracer().configure(256);
  obs::tracer().set_enabled(true);
  std::int64_t x = 0;
  for (auto _ : state) {
    obs::instant(obs::Cat::kMpi, "bench_instant", "arg", x);
    benchmark::DoNotOptimize(x += 1);
  }
  obs::tracer().set_enabled(false);
}
BENCHMARK(BM_ObsInstantEnabled);

// ---- journal + ledger overhead ----
// What one introspected iteration adds on top of the campaign loop: a
// buffered JSONL event append (journal) and one attribution sweep over the
// run's rank bitmaps (ledger).  The disabled-journal number is the emit
// envelope every non-journaling campaign pays.

void BM_JournalWriteIteration(benchmark::State& state) {
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() /
      ("compi_bench_journal_" + std::to_string(::getpid()) + ".jsonl");
  obs::Journal journal;
  if (!journal.open(file)) {
    state.SkipWithError("cannot open journal file");
    return;
  }
  const std::map<std::string, std::int64_t> inputs{{"x", 33}, {"y", 77}};
  int iter = 0;
  for (auto _ : state) {
    obs::JournalEvent(journal, "iteration", iter++)
        .num("nprocs", 8)
        .num("focus", 0)
        .str("outcome", "ok")
        .boolean("restart", false)
        .num("covered_branches", 120)
        .num("new_branches", 1)
        .real("exec_seconds", 0.001)
        .real("solve_seconds", 0.0002)
        .inputs(inputs);
  }
  journal.close();
  std::filesystem::remove(file);
}
BENCHMARK(BM_JournalWriteIteration);

void BM_JournalWriteDisabled(benchmark::State& state) {
  obs::Journal journal;  // never opened: every emit is an enabled() branch
  const std::map<std::string, std::int64_t> inputs{{"x", 33}, {"y", 77}};
  int iter = 0;
  for (auto _ : state) {
    obs::JournalEvent(journal, "iteration", iter++)
        .num("nprocs", 8)
        .str("outcome", "ok")
        .inputs(inputs);
  }
  benchmark::DoNotOptimize(journal.events_written());
}
BENCHMARK(BM_JournalWriteDisabled);

void BM_LedgerRecordRun(benchmark::State& state) {
  // One attribution sweep over `range(0)` ranks' bitmaps on the mini-HPL
  // table — the per-iteration ledger cost after steady state (every branch
  // already attributed, only hit counts move).
  const int nranks = static_cast<int>(state.range(0));
  const TargetInfo target = targets::make_mini_hpl_target(100);
  CoverageLedger ledger(*target.table);
  minimpi::RunResult run;
  run.ranks.resize(static_cast<std::size_t>(nranks));
  for (auto& rank : run.ranks) {
    rank.log.covered = rt::CoverageBitmap(target.table->num_branches());
    for (std::size_t b = 0; b < target.table->num_branches(); b += 2) {
      rank.log.covered.mark(static_cast<sym::BranchId>(b));
    }
  }
  const std::map<std::string, std::int64_t> inputs{{"n", 100}};
  CoverageLedger::RunContext ctx;
  ctx.nprocs = nranks;
  ctx.inputs = &inputs;
  int iter = 0;
  for (auto _ : state) {
    ctx.iteration = iter++;
    ledger.record_run(ctx, run);
  }
  benchmark::DoNotOptimize(ledger.covered_branches());
}
BENCHMARK(BM_LedgerRecordRun)->Arg(2)->Arg(8)->Arg(16);

// ---- sandbox (--isolate) overhead ----
// What one fork()ed, pipe-harvested test run costs over the same run
// launched in-process: the EXPERIMENTS.md "sandbox overhead" row.

const rt::BranchTable& sandbox_bench_table() {
  static const rt::BranchTable table = [] {
    rt::BranchTable t;
    t.add_site("bench", "gate");
    t.finalize();
    return t;
  }();
  return table;
}

minimpi::LaunchSpec sandbox_bench_spec(rt::VarRegistry& registry,
                                       const solver::Assignment& inputs) {
  minimpi::LaunchSpec spec;
  spec.nprocs = 2;
  spec.focus = 0;
  spec.registry = &registry;
  spec.inputs = &inputs;
  spec.rng_seed = 42;
  spec.timeout = std::chrono::milliseconds(5000);
  spec.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    const sym::SymInt x = ctx.input_int("x");
    benchmark::DoNotOptimize(ctx.branch(0, sym::SymInt(0) < x));
    world.barrier();
  };
  return spec;
}

void BM_LaunchInProcess(benchmark::State& state) {
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  const minimpi::LaunchSpec spec = sandbox_bench_spec(registry, inputs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimpi::launch(spec, sandbox_bench_table()));
  }
}
BENCHMARK(BM_LaunchInProcess)->Unit(benchmark::kMillisecond);

void BM_LaunchSandboxed(benchmark::State& state) {
  if (!sandbox::sandbox_supported()) {
    state.SkipWithError("no fork() on this platform");
    return;
  }
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  const minimpi::LaunchSpec spec = sandbox_bench_spec(registry, inputs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sandbox::run_sandboxed(spec, sandbox_bench_table(), {}, nullptr));
  }
}
BENCHMARK(BM_LaunchSandboxed)->Unit(benchmark::kMillisecond);

void BM_LaunchForkServer(benchmark::State& state) {
  // Warm spawn: each iteration forks from the long-lived server snapshot
  // instead of re-forking this (benchmark-sized) tester process.  The
  // EXPERIMENTS.md spawn-overhead table compares this row against
  // BM_LaunchSandboxed (the cold per-iteration fork).
  if (!sandbox::sandbox_supported()) {
    state.SkipWithError("no fork() on this platform");
    return;
  }
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  const minimpi::LaunchSpec spec = sandbox_bench_spec(registry, inputs);
  sandbox::ForkServer server(sandbox_bench_table(), {});
  bool warm = false;
  (void)server.run(spec, nullptr, &warm);  // pay server startup untimed
  if (!warm) {
    state.SkipWithError("fork server failed to start");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.run(spec, nullptr, &warm));
  }
  if (!warm) state.SkipWithError("fork server degraded to cold forks");
}
BENCHMARK(BM_LaunchForkServer)->Unit(benchmark::kMillisecond);

// ---- wildcard matching ----
// A wildcard fan-in job: every receive is an ANY_SOURCE decision, so this
// prices the receive path's per-receive bookkeeping plus the
// decision-trace records.

void BM_LaunchWildcardFanIn(benchmark::State& state) {
  rt::VarRegistry registry;
  minimpi::LaunchSpec spec;
  spec.nprocs = static_cast<int>(state.range(0)) + 1;
  spec.focus = 0;
  spec.registry = &registry;
  spec.rng_seed = 42;
  spec.timeout = std::chrono::milliseconds(5000);
  spec.program = [](rt::RuntimeContext&, minimpi::Comm& world) {
    const int me = world.raw_rank();
    constexpr int kRounds = 16;
    if (me != 0) {
      const std::vector<int> mine{me};
      for (int i = 0; i < kRounds; ++i) {
        world.send(std::span<const int>(mine), 0, 1);
      }
    } else {
      std::vector<int> got(1);
      const int total = kRounds * (world.raw_size() - 1);
      for (int i = 0; i < total; ++i) {
        world.recv(std::span<int>(got), minimpi::kAnySource, 1);
      }
    }
    world.barrier();
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimpi::launch(spec, sandbox_bench_table()));
  }
}
BENCHMARK(BM_LaunchWildcardFanIn)->Arg(3)->Arg(7)->Unit(
    benchmark::kMillisecond);

// ---- control plane (--serve) overhead ----
// Two claims: rendering one /metrics scrape body is cheap enough to serve
// on every poll tick, and a campaign that is not serving pays nothing for
// the feature (the EXPERIMENTS.md serve-overhead row).  The serve-on
// campaign number includes the listening server but no clients — the
// idle-server cost a serving campaign always carries.

void BM_MetricsScrape(benchmark::State& state) {
  // A registry populated like a mid-campaign scrape: `range(0)` series
  // across counters, gauges, and histograms (histograms dominate the
  // rendered byte count with their bucket lines).
  const int series = static_cast<int>(state.range(0));
  obs::Registry reg;
  for (int i = 0; i < series; ++i) {
    const std::string suffix = std::to_string(i);
    obs::Counter& c =
        reg.counter("bench_scrape_total_" + suffix, "scrape bench counter");
    c.inc(i);
    reg.gauge("bench_scrape_depth_" + suffix, "scrape bench gauge").set(i);
    obs::Histogram& h =
        reg.histogram("bench_scrape_us_" + suffix, "scrape bench histogram");
    for (int v = 1; v < 1024; v *= 3) h.observe(v);
  }
  for (auto _ : state) {
    std::ostringstream os;
    reg.write_prometheus(os);
    benchmark::DoNotOptimize(os.str().size());
  }
}
BENCHMARK(BM_MetricsScrape)->Arg(8)->Arg(32);

CampaignOptions serve_bench_opts() {
  CampaignOptions opts;
  opts.seed = 7;
  opts.iterations = 40;
  opts.initial_nprocs = 2;
  opts.max_procs = 2;
  opts.dfs_phase_iterations = 20;
  opts.checkpoint_interval = 0;
  return opts;
}

void BM_CampaignServeOff(benchmark::State& state) {
  const TargetInfo target = targets::make_mini_imb_target(4);
  const CampaignOptions opts = serve_bench_opts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Campaign(target, opts).run());
  }
}
BENCHMARK(BM_CampaignServeOff)->Unit(benchmark::kMillisecond);

void BM_CampaignServeOn(benchmark::State& state) {
  // Same campaign with the control plane bound to an ephemeral port (no
  // scraping clients).  On stub builds (obs-off preset) the bind fails and
  // this measures the same serve-less loop — the compiled-out claim.
  const TargetInfo target = targets::make_mini_imb_target(4);
  CampaignOptions opts = serve_bench_opts();
  opts.serve_port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Campaign(target, opts).run());
  }
}
BENCHMARK(BM_CampaignServeOn)->Unit(benchmark::kMillisecond);

void BM_WireEncodeDecode(benchmark::State& state) {
  // Serialization share of the sandbox overhead, without the fork.
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  const minimpi::LaunchSpec spec = sandbox_bench_spec(registry, inputs);
  const minimpi::RunResult run = minimpi::launch(spec, sandbox_bench_table());
  std::string frame;
  for (auto _ : state) {
    frame.clear();
    sandbox::encode_run_result(run, frame);
    minimpi::RunResult decoded;
    benchmark::DoNotOptimize(sandbox::decode_run_result(
        std::string_view(frame).substr(sandbox::kFrameHeaderBytes),
        registry.size(), decoded));
  }
  state.counters["payload_bytes"] =
      static_cast<double>(frame.size() - sandbox::kFrameHeaderBytes);
}
BENCHMARK(BM_WireEncodeDecode);

void BM_WireEncodeDecodeHpl(benchmark::State& state) {
  // The result --isolate ships on HPL: four ranks of mini-HPL (cap 100, a
  // 12x12 problem in 4x4 blocks on a 2x2 grid), 3.6 KB in the old text
  // codec, about a campaign's mean.  BM_WireEncodeDecode's two-rank toy
  // run is a tenth of that.
  const TargetInfo target = targets::make_mini_hpl_target(100);
  FixedRunOptions fixed;
  fixed.nprocs = 4;
  rt::VarRegistry registry;
  const minimpi::RunResult run = run_fixed(
      target, targets::mini_hpl_defaults(12, 4, 2, 2), fixed, &registry);
  std::string frame;
  for (auto _ : state) {
    frame.clear();
    sandbox::encode_run_result(run, frame);
    minimpi::RunResult decoded;
    benchmark::DoNotOptimize(sandbox::decode_run_result(
        std::string_view(frame).substr(sandbox::kFrameHeaderBytes),
        registry.size(), decoded));
  }
  state.counters["payload_bytes"] =
      static_cast<double>(frame.size() - sandbox::kFrameHeaderBytes);
}
BENCHMARK(BM_WireEncodeDecodeHpl);

// ---- --json sidecar: incremental solves through the store API ----
// Seconds per solve of the solver benchmarks above, timed over a fixed
// repetition count so before/after trajectories compare like for like.
void write_solver_sidecar(const compi::bench::BenchArgs& args) {
  compi::bench::JsonEmitter json(args, "micro_solver");
  const solver::Solver s;
  const auto time_solves = [&](const StoreQuery& q) {
    constexpr int kReps = 2000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) benchmark::DoNotOptimize(q.solve(s));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() /
           kReps;
  };
  for (int k : {16, 256, 2048}) {
    const StoreQuery q = independent_query(k);
    json.row("independent_" + std::to_string(k),
             {{"seconds_per_solve", time_solves(q)},
              {"slice_size",
               static_cast<double>(q.solve(s).slice_size)}});
  }
  const StoreQuery deep = deep_prefix_query();
  const solver::SolveResult r = deep.solve(s);
  json.row("deep_prefix", {{"seconds_per_solve", time_solves(deep)},
                           {"slice_size", static_cast<double>(r.slice_size)},
                           {"nodes", static_cast<double>(r.nodes_searched)},
                           {"sat", r.sat ? 1.0 : 0.0}});
}

// ---- --json sidecar: the spawn-engine trajectory ----
// Cold fork vs warm spawn, measured the way a campaign
// experiences them: the cold fork copies the CAMPAIGN process (here padded
// with a dirty heap standing in for solver caches, ledger, and journal
// buffers accumulated mid-campaign), while the fork server's executor was
// forked from the lean snapshot taken before that heap existed and runs
// every clean iteration without forking.

double seconds_per_run(int runs, const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < runs; ++i) body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / runs;
}

void write_spawn_sidecar(const compi::bench::BenchArgs& args) {
  compi::bench::JsonEmitter json(args, "micro_spawn");
  if (!sandbox::sandbox_supported()) {
    json.row("unsupported", {{"sandbox_supported", 0.0}});
    return;
  }
  const int runs = args.full ? 400 : 100;

  rt::VarRegistry registry;
  const solver::Assignment inputs;
  const minimpi::LaunchSpec spec = sandbox_bench_spec(registry, inputs);

  // Snapshot the server FIRST, then dirty a campaign-sized heap: the
  // executor keeps the lean snapshot, cold forks pay for the heap.
  sandbox::ForkServer server(sandbox_bench_table(), {});
  bool warm = false;
  (void)server.run(spec, nullptr, &warm);
  std::vector<char> campaign_heap;
  if (warm) {
    campaign_heap.resize(192u << 20);
    for (std::size_t i = 0; i < campaign_heap.size(); i += 4096) {
      campaign_heap[i] = static_cast<char>(i);
    }
  }

  const double cold = seconds_per_run(runs, [&] {
    benchmark::DoNotOptimize(
        sandbox::run_sandboxed(spec, sandbox_bench_table(), {}, nullptr));
  });
  json.row("cold_fork", {{"seconds_per_run", cold},
                         {"runs", static_cast<double>(runs)}});

  if (warm) {
    const double warm_s = seconds_per_run(runs, [&] {
      benchmark::DoNotOptimize(server.run(spec, nullptr, &warm));
    });
    json.row("warm_spawn", {{"seconds_per_run", warm_s},
                            {"runs", static_cast<double>(runs)},
                            {"speedup_vs_cold", cold / warm_s},
                            {"degraded", warm ? 0.0 : 1.0}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Peel the compi sweep flags (--json[=DIR], --full, --seed=N) off the
  // command line before google-benchmark parses it; everything else is
  // google-benchmark's.
  compi::bench::BenchArgs args;
  std::vector<char*> gb_argv;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && (std::strcmp(argv[i], "--json") == 0 ||
                  std::strncmp(argv[i], "--json=", 7) == 0 ||
                  std::strcmp(argv[i], "--full") == 0 ||
                  std::strncmp(argv[i], "--seed=", 7) == 0)) {
      char* own[] = {argv[0], argv[i]};
      const compi::bench::BenchArgs one = compi::bench::parse_args(2, own);
      args.json = args.json || one.json;
      args.full = args.full || one.full;
      if (one.seed != 1) args.seed = one.seed;
      if (one.json_dir != ".") args.json_dir = one.json_dir;
      continue;
    }
    gb_argv.push_back(argv[i]);
  }
  int gb_argc = static_cast<int>(gb_argv.size());
  benchmark::Initialize(&gb_argc, gb_argv.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (args.json) {
    write_spawn_sidecar(args);
    write_solver_sidecar(args);
  }
  return 0;
}
