// Crash-path regression tests for the fork-server execution engine: an
// executor that REALLY segfaults or wedges must map onto the same
// Outcome/harvest the cold sandbox produces — and must leave the server
// alive to fork a replacement for the next warm run.  Killing the server
// itself mid-stream must cold-fork the in-flight iteration (never lose
// it), then restart.  The lifecycle tests pin when executors are forked:
// once for a run of clean iterations, once more after each fault.
#include "sandbox/fork_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

#include "minimpi/launcher.h"
#include "sandbox/supervisor.h"
#include "tests/compi/fig2_target.h"

#if defined(__SANITIZE_ADDRESS__)
#define COMPI_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COMPI_TEST_ASAN 1
#endif
#endif

namespace compi::sandbox {
namespace {

using compi::testing::Fig2Site;
using compi::testing::fig2_table;
using compi::testing::fig2_target;

minimpi::LaunchSpec make_spec(const TargetInfo& target,
                              rt::VarRegistry& registry,
                              const solver::Assignment& inputs, int nprocs) {
  minimpi::LaunchSpec spec;
  spec.program = target.program;
  spec.nprocs = nprocs;
  spec.focus = 0;
  spec.registry = &registry;
  spec.inputs = &inputs;
  spec.rng_seed = 42;
  spec.timeout = std::chrono::milliseconds(5000);
  return spec;
}

void expect_same_logs(const minimpi::RunResult& a,
                      const minimpi::RunResult& b) {
  EXPECT_EQ(a.job_outcome(), b.job_outcome());
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].outcome, b.ranks[r].outcome) << "rank " << r;
    EXPECT_EQ(a.ranks[r].log.serialize(), b.ranks[r].log.serialize())
        << "rank " << r;
  }
}

/// expect_same_logs for runs whose logs crossed the wire with several
/// inputs: `inputs_used` is an unordered map, so its serialized order is
/// not part of a run's identity and is compared as a map instead.
void expect_same_runs(const minimpi::RunResult& a,
                      const minimpi::RunResult& b) {
  EXPECT_EQ(a.job_outcome(), b.job_outcome());
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].outcome, b.ranks[r].outcome) << "rank " << r;
    EXPECT_EQ(a.ranks[r].log.inputs_used, b.ranks[r].log.inputs_used)
        << "rank " << r;
    rt::TestLog la = a.ranks[r].log;
    rt::TestLog lb = b.ranks[r].log;
    la.inputs_used.clear();
    lb.inputs_used.clear();
    EXPECT_EQ(la.serialize(), lb.serialize()) << "rank " << r;
  }
}

/// Rank 0 raises a REAL SIGSEGV when the supplied inputs set x == 33.
/// Input-dependent so the same warm server can run both the crashing and
/// the clean iteration — the snapshot captures the program once.
TargetInfo segv_on_33_target() {
  TargetInfo info = fig2_target();
  info.name = "fig2_segv33";
  info.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    using sym::SymInt;
    const SymInt x = ctx.input_int_capped("x", 500);
    const SymInt rank = world.comm_rank(ctx);
    if (br(ctx, Fig2Site::kRankZero, rank == SymInt(0))) {
      if (br(ctx, Fig2Site::kMagic, x == SymInt(33))) {
        (void)std::raise(SIGSEGV);
      }
    }
    world.barrier();
  };
  return info;
}

/// Rank 0 wedges in an uninstrumented spin when x == 250: no branch
/// events, no MPI calls — only the supervisor's SIGKILL ends it.
TargetInfo hang_on_250_target() {
  TargetInfo info = fig2_target();
  info.name = "fig2_hang250";
  info.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    using sym::SymInt;
    const SymInt x = ctx.input_int_capped("x", 500);
    const SymInt rank = world.comm_rank(ctx);
    if (br(ctx, Fig2Site::kRankZero, rank == SymInt(0))) {
      if (br(ctx, Fig2Site::kMagic, x == SymInt(250))) {
        volatile bool spin = true;
        while (spin) {
        }
      }
    }
    world.barrier();
  };
  return info;
}

/// Every rank interns "x", then "z" only when x == 7, then "y", and
/// branches on y, so a run's path names y's variable id: an executor that
/// missed the earlier "z" gives y the wrong id.  Rank 0 raises a REAL
/// SIGSEGV when x == 33 and fails a simulated assertion when x == 44.
TargetInfo registry_probe_target() {
  TargetInfo info = fig2_target();
  info.name = "fig2_registry_probe";
  info.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    using sym::SymInt;
    const SymInt x = ctx.input_int_capped("x", 500);
    if (br(ctx, Fig2Site::kXLow, x == SymInt(7))) {
      (void)ctx.input_int_capped("z", 500);
    }
    const SymInt y = ctx.input_int_capped("y", 500);
    if (br(ctx, Fig2Site::kYLow, y == SymInt(5))) {
      world.barrier();
    }
    const SymInt rank = world.comm_rank(ctx);
    if (br(ctx, Fig2Site::kRankZero, rank == SymInt(0))) {
      if (br(ctx, Fig2Site::kMagic, x == SymInt(33))) {
        (void)std::raise(SIGSEGV);
      }
      ctx.check(x.value() != 44, "simulated fault: x == 44 on the master");
    }
    world.barrier();
  };
  return info;
}

/// Rank 0 burns x * 10 ms of process CPU time.
TargetInfo cpu_burn_target() {
  TargetInfo info = fig2_target();
  info.name = "fig2_cpu_burn";
  info.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    using sym::SymInt;
    const SymInt x = ctx.input_int_capped("x", 500);
    const SymInt rank = world.comm_rank(ctx);
    if (br(ctx, Fig2Site::kRankZero, rank == SymInt(0))) {
      const auto cpu_ns = [] {
        timespec t{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
        return static_cast<long long>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
      };
      const long long until = cpu_ns() + x.value() * 10'000'000LL;
      while (cpu_ns() < until) {
      }
    }
    world.barrier();
  };
  return info;
}

/// A fault on one executor, then a clean run on its replacement: the
/// replacement must know "z" (interned by the first executor) and match
/// the in-process launch, and exactly one replacement was forked.
void expect_replacement_after_fault(int fault_x, rt::Outcome expected) {
  const TargetInfo target = registry_probe_target();
  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry registry;
  rt::VarRegistry in_proc_registry;
  solver::Assignment with_z;
  with_z[0] = 7;
  bool warm = false;
  const minimpi::RunResult first =
      server.run(make_spec(target, registry, with_z, 2), nullptr, &warm);
  ASSERT_TRUE(warm);
  ASSERT_EQ(first.job_outcome(), rt::Outcome::kOk) << first.job_message();
  expect_same_runs(minimpi::launch(make_spec(target, in_proc_registry, with_z,
                                             2),
                                   *target.table),
                   first);
  ASSERT_GE(registry.size(), 3u) << "x, z, y came back from the executor";
  const long first_executor = server.executor_pid();

  solver::Assignment fault;
  fault[0] = fault_x;
  SandboxStats st;
  const minimpi::RunResult faulted =
      server.run(make_spec(target, registry, fault, 2), &st, &warm);
  EXPECT_TRUE(warm);
  EXPECT_EQ(faulted.job_outcome(), expected) << faulted.job_message();
  EXPECT_EQ(st.signal_kill, expected == rt::Outcome::kSegfault);

  solver::Assignment clean;
  clean[0] = 1;
  clean[2] = 5;  // y, by the id the first run gave it
  const minimpi::RunResult replaced =
      server.run(make_spec(target, registry, clean, 2), nullptr, &warm);
  EXPECT_TRUE(warm) << "the replacement executor runs warm";
  expect_same_runs(minimpi::launch(make_spec(target, in_proc_registry, clean,
                                             2),
                                   *target.table),
                   replaced);
  EXPECT_EQ(server.stats().executor_forks, 2u);
  EXPECT_NE(server.executor_pid(), first_executor);
  EXPECT_EQ(server.stats().restarts, 0u);
  EXPECT_EQ(server.stats().cold_forks, 0u);
}

#ifdef __linux__
/// True once `pid` is no longer a running process (gone or a zombie),
/// polled for up to five seconds.
bool process_ends(long pid) {
  for (int i = 0; i < 500; ++i) {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(stat, line)) return true;
    const std::size_t name_end = line.rfind(')');
    if (name_end == std::string::npos || name_end + 2 >= line.size()) {
      return true;
    }
    const char state = line[name_end + 2];
    if (state == 'Z' || state == 'X') return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}
#endif

TEST(ForkServer, WarmSpawnReproducesTheInProcessRun) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = fig2_target();

  rt::VarRegistry in_proc_registry;
  const solver::Assignment inputs;
  const minimpi::RunResult in_proc = minimpi::launch(
      make_spec(target, in_proc_registry, inputs, 3), *target.table);
  ASSERT_EQ(in_proc.job_outcome(), rt::Outcome::kOk) << in_proc.job_message();

  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry registry;
  SandboxStats st;
  bool warm = false;
  const minimpi::RunResult got =
      server.run(make_spec(target, registry, inputs, 3), &st, &warm);
  EXPECT_TRUE(warm) << "the very first run already spawns from the snapshot";
  EXPECT_TRUE(st.forked);
  expect_same_logs(in_proc, got);
  EXPECT_EQ(server.stats().warm_spawns, 1u);
  EXPECT_EQ(server.stats().cold_forks, 0u);
  EXPECT_GT(server.stats().last_spawn_seconds, 0.0);

  // Per-iteration parameters must reach the executor through the spawn
  // frame, not the stale snapshot: a different seed changes the run.
  rt::VarRegistry reseeded_registry;
  minimpi::LaunchSpec reseeded =
      make_spec(target, reseeded_registry, inputs, 3);
  reseeded.rng_seed = 777;
  const minimpi::RunResult in_proc_777 =
      minimpi::launch(reseeded, *target.table);
  minimpi::LaunchSpec warm_777 = make_spec(target, registry, inputs, 3);
  warm_777.rng_seed = 777;
  const minimpi::RunResult got_777 = server.run(warm_777, nullptr, &warm);
  EXPECT_TRUE(warm);
  expect_same_logs(in_proc_777, got_777);
  EXPECT_EQ(server.stats().warm_spawns, 2u);
}

TEST(ForkServer, GrandchildSegfaultMapsOutcomeAndServerSurvives) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = segv_on_33_target();
  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry registry;

  solver::Assignment crash_inputs;
  crash_inputs[0] = 33;  // "x" is the program's first intern => var id 0
  SandboxStats st;
  bool warm = false;
  const minimpi::RunResult crashed =
      server.run(make_spec(target, registry, crash_inputs, 2), &st, &warm);
  EXPECT_TRUE(warm);
  EXPECT_TRUE(st.signal_kill);
  EXPECT_EQ(st.term_signal, SIGSEGV);
  EXPECT_FALSE(st.hang_kill);
  EXPECT_EQ(crashed.job_outcome(), rt::Outcome::kSegfault)
      << crashed.job_message();
  EXPECT_NE(crashed.job_message().find("SIGSEGV"), std::string::npos)
      << crashed.job_message();
  // The branches rank 0 executed on its way to the crash were flushed to
  // the MAP_SHARED mirror and harvested from the dead executor.
  EXPECT_FALSE(st.harvested.empty());
  EXPECT_GT(st.harvest_bytes, 0u);

  // The server must still be live: the next iteration is warm and clean.
  solver::Assignment clean_inputs;
  clean_inputs[0] = 1;
  SandboxStats st2;
  const minimpi::RunResult clean =
      server.run(make_spec(target, registry, clean_inputs, 2), &st2, &warm);
  EXPECT_TRUE(warm) << "an executor crash must not take the server down";
  EXPECT_FALSE(st2.signal_kill);
  EXPECT_EQ(clean.job_outcome(), rt::Outcome::kOk) << clean.job_message();
  EXPECT_EQ(server.stats().restarts, 0u);
  EXPECT_EQ(server.stats().warm_spawns, 2u);
}

TEST(ForkServer, GrandchildAbortMapsToAssert) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  TargetInfo target = fig2_target();
  target.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    using sym::SymInt;
    const SymInt x = ctx.input_int_capped("x", 500);
    const SymInt rank = world.comm_rank(ctx);
    if (br(ctx, Fig2Site::kRankZero, rank == SymInt(0))) {
      if (br(ctx, Fig2Site::kMagic, x == SymInt(33))) {
        (void)std::raise(SIGABRT);
      }
    }
    world.barrier();
  };
  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry registry;
  solver::Assignment inputs;
  inputs[0] = 33;
  SandboxStats st;
  bool warm = false;
  const minimpi::RunResult got =
      server.run(make_spec(target, registry, inputs, 2), &st, &warm);
  EXPECT_TRUE(warm);
  EXPECT_TRUE(st.signal_kill);
  EXPECT_EQ(st.term_signal, SIGABRT);
  EXPECT_EQ(got.job_outcome(), outcome_for_signal(SIGABRT));
}

TEST(ForkServer, GrandchildHangIsKilledAndServerSurvives) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = hang_on_250_target();
  ForkServerOptions options;
  options.sandbox.hang_timeout = std::chrono::milliseconds(400);
  ForkServer server(*target.table, options);
  rt::VarRegistry registry;

  solver::Assignment hang_inputs;
  hang_inputs[0] = 250;
  SandboxStats st;
  bool warm = false;
  minimpi::LaunchSpec spec = make_spec(target, registry, hang_inputs, 2);
  spec.timeout = std::chrono::milliseconds(100);
  const minimpi::RunResult hung = server.run(spec, &st, &warm);
  EXPECT_TRUE(warm);
  EXPECT_TRUE(st.hang_kill) << "the watchdog must SIGKILL the executor";
  EXPECT_FALSE(st.signal_kill);
  EXPECT_EQ(hung.job_outcome(), rt::Outcome::kTimeout) << hung.job_message();

  solver::Assignment clean_inputs;
  clean_inputs[0] = 1;
  SandboxStats st2;
  minimpi::LaunchSpec clean_spec =
      make_spec(target, registry, clean_inputs, 2);
  const minimpi::RunResult clean = server.run(clean_spec, &st2, &warm);
  EXPECT_TRUE(warm) << "a hang kill must not take the server down";
  EXPECT_EQ(clean.job_outcome(), rt::Outcome::kOk) << clean.job_message();
  EXPECT_EQ(server.stats().restarts, 0u);
}

TEST(ForkServer, ServerDeathColdForksTheIterationThenRestarts) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = fig2_target();
  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry registry;
  const solver::Assignment inputs;

  bool warm = false;
  const minimpi::RunResult first =
      server.run(make_spec(target, registry, inputs, 3), nullptr, &warm);
  ASSERT_TRUE(warm);
  ASSERT_EQ(first.job_outcome(), rt::Outcome::kOk);

  // Murder the server out from under the supervisor, mid-campaign.
  const long pid = server.server_pid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);

  // The in-flight iteration is never lost: it falls back to a cold fork
  // and still produces the deterministic result.
  SandboxStats st;
  const minimpi::RunResult fallback =
      server.run(make_spec(target, registry, inputs, 3), &st, &warm);
  EXPECT_FALSE(warm) << "a dead server cannot have spawned this run";
  EXPECT_TRUE(st.forked) << "the fallback is a cold fork, not in-process";
  expect_same_logs(first, fallback);
  EXPECT_EQ(server.stats().restarts, 1u);
  EXPECT_EQ(server.stats().cold_forks, 1u);
  EXPECT_FALSE(server.degraded());

  // The next run restarts the server and is warm again.
  const minimpi::RunResult revived =
      server.run(make_spec(target, registry, inputs, 3), nullptr, &warm);
  EXPECT_TRUE(warm) << "within budget, a death is followed by a restart";
  expect_same_logs(first, revived);
  EXPECT_EQ(server.stats().warm_spawns, 2u);
}

TEST(ForkServer, DegradesToColdForksOnceRestartBudgetIsSpent) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = fig2_target();
  ForkServerOptions options;
  options.max_restarts = 0;  // the first death already exhausts the budget
  ForkServer server(*target.table, options);
  rt::VarRegistry registry;
  const solver::Assignment inputs;

  bool warm = false;
  (void)server.run(make_spec(target, registry, inputs, 2), nullptr, &warm);
  ASSERT_TRUE(warm);
  ASSERT_EQ(::kill(static_cast<pid_t>(server.server_pid()), SIGKILL), 0);

  const minimpi::RunResult fallback =
      server.run(make_spec(target, registry, inputs, 2), nullptr, &warm);
  EXPECT_FALSE(warm);
  EXPECT_EQ(fallback.job_outcome(), rt::Outcome::kOk);
  EXPECT_TRUE(server.degraded());
  EXPECT_EQ(server.server_pid(), -1);

  // Degraded means cold forever: no new server, every run still correct.
  SandboxStats st;
  const minimpi::RunResult cold =
      server.run(make_spec(target, registry, inputs, 2), &st, &warm);
  EXPECT_FALSE(warm);
  EXPECT_TRUE(st.forked);
  EXPECT_EQ(cold.job_outcome(), rt::Outcome::kOk);
  EXPECT_EQ(server.stats().warm_spawns, 1u);
  EXPECT_EQ(server.stats().cold_forks, 2u);
  EXPECT_EQ(server.stats().restarts, 1u);
}

TEST(ForkServer, FiftyCleanRunsForkOneExecutor) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = fig2_target();
  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry registry;
  rt::VarRegistry in_proc_registry;
  for (int i = 0; i < 50; ++i) {
    solver::Assignment inputs;
    inputs[0] = 1 + i;
    inputs[1] = 2 + i % 7;
    bool warm = false;
    const minimpi::RunResult got =
        server.run(make_spec(target, registry, inputs, 3), nullptr, &warm);
    ASSERT_TRUE(warm) << "run " << i;
    expect_same_runs(minimpi::launch(
                         make_spec(target, in_proc_registry, inputs, 3),
                         *target.table),
                     got);
  }
  EXPECT_EQ(server.stats().warm_spawns, 50u);
  EXPECT_EQ(server.stats().executor_forks, 1u)
      << "clean iterations fork no process";
}

TEST(ForkServer, RealSegfaultIsFollowedByAReplacementThatKnowsTheRegistry) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  expect_replacement_after_fault(33, rt::Outcome::kSegfault);
}

TEST(ForkServer, SimulatedFaultIsFollowedByAReplacementThatKnowsTheRegistry) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  expect_replacement_after_fault(44, rt::Outcome::kAssert);
}

TEST(ForkServer, FaultStreaksRecycleWithoutRestartingTheServer) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  // Back-to-back faults: each executor delivers one run and exits, so the
  // lifecycle frames of one executor and the next interleave with the
  // server's answers to the parent's pings.  A bookkeeping slip shows up
  // as a run that waits out its hang deadline and restarts the server.
  const TargetInfo target = registry_probe_target();
  ForkServerOptions options;
  options.sandbox.hang_timeout = std::chrono::milliseconds(3000);
  ForkServer server(*target.table, options);
  rt::VarRegistry registry;
  solver::Assignment fault;
  fault[0] = 44;
  solver::Assignment clean;
  clean[0] = 1;
  constexpr int kFaults = 40;
  for (int i = 0; i < kFaults; ++i) {
    bool warm = false;
    const minimpi::LaunchSpec spec =
        make_spec(target, registry, i % 4 == 3 ? clean : fault, 2);
    const minimpi::RunResult got = server.run(spec, nullptr, &warm);
    ASSERT_TRUE(warm) << "run " << i;
    ASSERT_EQ(got.job_outcome(),
              i % 4 == 3 ? rt::Outcome::kOk : rt::Outcome::kAssert)
        << "run " << i;
  }
  bool warm = false;
  (void)server.run(make_spec(target, registry, clean, 2), nullptr, &warm);
  EXPECT_TRUE(warm);
  EXPECT_EQ(server.stats().restarts, 0u);
  EXPECT_EQ(server.stats().cold_forks, 0u);
  EXPECT_EQ(server.stats().executor_forks, 1u + kFaults - kFaults / 4);
}

TEST(ForkServer, CpuFenceIsPerIterationInALongLivedExecutor) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = cpu_burn_target();
  ForkServerOptions options;
  options.sandbox.child_cpu_s = 1;
  options.sandbox.hang_timeout = std::chrono::milliseconds(10'000);
  ForkServer server(*target.table, options);
  rt::VarRegistry registry;

  // 1.8 s of CPU in one executor: a one-time 1 s limit would kill the
  // second run.
  solver::Assignment busy;
  busy[0] = 60;  // 0.6 s
  for (int i = 0; i < 3; ++i) {
    SandboxStats st;
    bool warm = false;
    const minimpi::RunResult got =
        server.run(make_spec(target, registry, busy, 1), &st, &warm);
    EXPECT_TRUE(warm);
    EXPECT_FALSE(st.signal_kill) << "run " << i << " signal " << st.term_signal;
    EXPECT_EQ(got.job_outcome(), rt::Outcome::kOk)
        << "run " << i << ": " << got.job_message();
  }
  EXPECT_EQ(server.stats().executor_forks, 1u);

  solver::Assignment runaway;
  runaway[0] = 150;  // 1.5 s, past the one-second budget
  SandboxStats st;
  const minimpi::RunResult got =
      server.run(make_spec(target, registry, runaway, 1), &st);
  EXPECT_TRUE(st.signal_kill);
  EXPECT_EQ(st.term_signal, SIGXCPU);
  EXPECT_FALSE(st.hang_kill) << "the CPU fence, not the wall clock, ends it";
  EXPECT_EQ(got.job_outcome(), rt::Outcome::kTimeout) << got.job_message();
}

#ifdef __linux__
/// VmRSS of `pid` in KiB, or -1 when /proc has no such line.
long vm_rss_kib(long pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return -1;
}

TEST(ForkServer, LongCleanStreakKeepsTheExecutorMemoryFlat) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
#ifdef COMPI_TEST_ASAN
  GTEST_SKIP() << "ASan's quarantine keeps freed blocks resident";
#endif
  // One executor serves every clean run of a campaign, so anything it
  // keeps per spawn grows for the whole campaign.  Three hundred inputs
  // make each spawn frame ~2 KB: keeping the frames would add ~10 MB over
  // these 5000 runs.
  const TargetInfo target = fig2_target();
  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry registry;
  solver::Assignment inputs;
  for (solver::Var v = 0; v < 300; ++v) inputs[v] = 1 + v % 7;
  const auto clean_warm_run = [&] {
    bool warm = false;
    const minimpi::RunResult got =
        server.run(make_spec(target, registry, inputs, 2), nullptr, &warm);
    return warm && got.job_outcome() == rt::Outcome::kOk;
  };
  constexpr int kWarmup = 200;
  constexpr int kRuns = 5000;
  for (int i = 0; i < kWarmup; ++i) ASSERT_TRUE(clean_warm_run()) << i;
  const long before = vm_rss_kib(server.executor_pid());
  ASSERT_GT(before, 0);
  for (int i = kWarmup; i < kRuns; ++i) ASSERT_TRUE(clean_warm_run()) << i;
  const long after = vm_rss_kib(server.executor_pid());
  EXPECT_EQ(server.stats().executor_forks, 1u);
  EXPECT_LT(after - before, 2048)
      << "executor VmRSS " << before << " KiB -> " << after << " KiB";
}

TEST(ForkServer, KilledServerLeavesNoExecutorBehind) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = fig2_target();
  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  bool warm = false;
  (void)server.run(make_spec(target, registry, inputs, 2), nullptr, &warm);
  ASSERT_TRUE(warm);
  const long executor = server.executor_pid();
  ASSERT_GT(executor, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(server.server_pid()), SIGKILL), 0);
  EXPECT_TRUE(process_ends(executor))
      << "the executor must not outlive its server";

  const minimpi::RunResult fallback =
      server.run(make_spec(target, registry, inputs, 2), nullptr, &warm);
  EXPECT_FALSE(warm);
  EXPECT_EQ(fallback.job_outcome(), rt::Outcome::kOk);
  EXPECT_EQ(server.stats().restarts, 1u);
}

TEST(ForkServer, DestructorLeavesNoExecutorBehind) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = fig2_target();
  long executor = -1;
  {
    ForkServer server(*target.table, ForkServerOptions{});
    rt::VarRegistry registry;
    const solver::Assignment inputs;
    bool warm = false;
    (void)server.run(make_spec(target, registry, inputs, 2), nullptr, &warm);
    ASSERT_TRUE(warm);
    executor = server.executor_pid();
    ASSERT_GT(executor, 0);
  }
  EXPECT_TRUE(process_ends(executor));
}
#endif

// The run-level half of the isolation contract: the in-process launcher,
// a cold sandboxed fork and the fork server's persistent executor turn the
// same specs into the same runs — clean ones, a simulated fault on the
// master (which recycles the executor), several world sizes, seeds and
// foci.  The campaign-level equivalence suite compares --isolate with
// in-process only, so this is where the cold fallback meets a warm run.
TEST(ForkServer, ColdForkAndWarmSpawnMatchTheInProcessLauncher) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = fig2_target(/*with_bug=*/true);
  ForkServer server(*target.table, ForkServerOptions{});
  rt::VarRegistry in_proc_registry, cold_registry, warm_registry;
  struct Case {
    std::int64_t x, y;
    int nprocs, focus;
    std::uint64_t seed;
  };
  const Case cases[] = {{5, 3, 3, 0, 42},   {40, 77, 4, 0, 7},
                        {2, 150, 4, 2, 9},  {0, 1, 2, 0, 42},
                        {8, 77, 2, 1, 13},  {3, 20, 3, 1, 99}};
  bool saw_fault = false;
  for (const Case& c : cases) {
    solver::Assignment inputs;
    inputs[0] = c.x;
    inputs[1] = c.y;
    const auto spec_for = [&](rt::VarRegistry& registry) {
      minimpi::LaunchSpec spec = make_spec(target, registry, inputs, c.nprocs);
      spec.focus = c.focus;
      spec.rng_seed = c.seed;
      return spec;
    };
    const minimpi::RunResult in_proc =
        minimpi::launch(spec_for(in_proc_registry), *target.table);
    SandboxStats cold_st;
    const minimpi::RunResult cold = run_sandboxed(
        spec_for(cold_registry), *target.table, SandboxOptions{}, &cold_st);
    bool warm = false;
    const minimpi::RunResult warm_run =
        server.run(spec_for(warm_registry), nullptr, &warm);
    SCOPED_TRACE("x=" + std::to_string(c.x) + " y=" + std::to_string(c.y));
    EXPECT_TRUE(cold_st.forked);
    EXPECT_TRUE(warm);
    expect_same_runs(in_proc, cold);
    expect_same_runs(in_proc, warm_run);
    saw_fault = saw_fault || in_proc.job_outcome() != rt::Outcome::kOk;
  }
  EXPECT_TRUE(saw_fault) << "the seeded y == 77 bug must fire on a master";
  EXPECT_EQ(in_proc_registry.size(), cold_registry.size());
  EXPECT_EQ(in_proc_registry.size(), warm_registry.size());
  EXPECT_EQ(server.stats().cold_forks, 0u);
  EXPECT_EQ(server.stats().restarts, 0u);
}

}  // namespace
}  // namespace compi::sandbox
