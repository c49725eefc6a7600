// Supervisor tests: real crashes and hangs are contained in a forked
// child, mapped onto the Outcome taxonomy, and their flushed coverage is
// harvested.
#include "sandbox/supervisor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <vector>

#include "minimpi/launcher.h"
#include "runtime/faults.h"
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

minimpi::LaunchSpec base_spec(rt::VarRegistry& registry,
                              const solver::Assignment& inputs, int nprocs) {
  minimpi::LaunchSpec spec;
  spec.nprocs = nprocs;
  spec.focus = 0;
  spec.registry = &registry;
  spec.inputs = &inputs;
  spec.rng_seed = 42;
  spec.timeout = std::chrono::milliseconds(5000);
  return spec;
}

TEST(OutcomeForSignal, MapsOntoTheExistingTaxonomy) {
  EXPECT_EQ(outcome_for_signal(SIGSEGV), rt::Outcome::kSegfault);
  EXPECT_EQ(outcome_for_signal(SIGILL), rt::Outcome::kSegfault);
  EXPECT_EQ(outcome_for_signal(SIGFPE), rt::Outcome::kFpe);
  EXPECT_EQ(outcome_for_signal(SIGABRT), rt::Outcome::kAssert);
#ifdef SIGBUS
  EXPECT_EQ(outcome_for_signal(SIGBUS), rt::Outcome::kSegfault);
#endif
#ifdef SIGKILL
  EXPECT_EQ(outcome_for_signal(SIGKILL), rt::Outcome::kTimeout);
#endif
#ifdef SIGXCPU
  EXPECT_EQ(outcome_for_signal(SIGXCPU), rt::Outcome::kTimeout);
#endif
  EXPECT_EQ(outcome_for_signal(1234), rt::Outcome::kMpiError);
}

TEST(OutcomeForSignal, MappedOutcomesRoundTripThroughStrings) {
  // Sandboxed outcomes must survive bugs.txt / checkpoint serialization:
  // to_string -> outcome_from_string is the round trip every session file
  // uses.
  const std::vector<int> signals = {SIGSEGV, SIGILL, SIGFPE, SIGABRT,
#ifdef SIGBUS
                                    SIGBUS,
#endif
#ifdef SIGKILL
                                    SIGKILL,
#endif
#ifdef SIGXCPU
                                    SIGXCPU,
#endif
                                    9999};
  for (int sig : signals) {
    const rt::Outcome outcome = outcome_for_signal(sig);
    const auto parsed = rt::outcome_from_string(rt::to_string(outcome));
    ASSERT_TRUE(parsed.has_value()) << rt::to_string(outcome);
    EXPECT_EQ(*parsed, outcome) << "signal " << sig;
    EXPECT_TRUE(rt::is_fault(outcome)) << "signal " << sig;
  }
}

TEST(Supervisor, CleanRunMatchesInProcessLaunch) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork() on this platform";
  const TargetInfo target = fig2_target();
  rt::VarRegistry in_proc_registry;
  rt::VarRegistry sandbox_registry;
  const solver::Assignment inputs;

  minimpi::LaunchSpec spec = base_spec(in_proc_registry, inputs, 3);
  spec.program = target.program;
  const minimpi::RunResult in_proc = minimpi::launch(spec, *target.table);

  spec.registry = &sandbox_registry;
  SandboxStats stats;
  const minimpi::RunResult sandboxed =
      run_sandboxed(spec, *target.table, SandboxOptions{}, &stats);

  EXPECT_TRUE(stats.forked);
  EXPECT_FALSE(stats.signal_kill);
  EXPECT_FALSE(stats.hang_kill);
  EXPECT_GT(stats.harvest_bytes, 0u);  // the result frame itself
  EXPECT_EQ(sandboxed.job_outcome(), in_proc.job_outcome());
  EXPECT_EQ(sandboxed.merged_coverage().covered_ids(),
            in_proc.merged_coverage().covered_ids());
  EXPECT_EQ(sandboxed.focus_log().serialize(), in_proc.focus_log().serialize());
  // The variables the child interned came back over the registry frame:
  // without this the driver's planner dereferences unknown var ids.
  EXPECT_EQ(sandbox_registry.size(), in_proc_registry.size());
  EXPECT_GT(sandbox_registry.size(), 0u);
}

TEST(Supervisor, RealSegfaultIsContainedAndCoverageHarvested) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork() on this platform";
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  minimpi::LaunchSpec spec = base_spec(registry, inputs, 2);
  spec.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    // Flush one branch into the shared coverage map, then die for real.
    br(ctx, Fig2Site::kXLow, sym::SymInt(0) < sym::SymInt(1));
    if (world.raw_rank() == 0) (void)std::raise(SIGSEGV);
    world.barrier();
  };

  SandboxStats stats;
  const minimpi::RunResult run =
      run_sandboxed(spec, fig2_table(), SandboxOptions{}, &stats);

  EXPECT_TRUE(stats.forked);
  EXPECT_TRUE(stats.signal_kill);
  EXPECT_EQ(stats.term_signal, SIGSEGV);
  EXPECT_FALSE(stats.hang_kill);
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kSegfault);
  EXPECT_NE(run.job_message().find("SIGSEGV"), std::string::npos)
      << run.job_message();
  ASSERT_EQ(run.ranks.size(), 2u);
  // The branch flushed before the crash survives the child's death.
  const rt::CoverageBitmap merged = run.merged_coverage();
  EXPECT_TRUE(merged.covered(
      sym::branch_id(static_cast<sym::SiteId>(Fig2Site::kXLow), true)));
  EXPECT_GT(stats.harvest_bytes, 0u);
}

TEST(Supervisor, RealFpeAndAbortMapToTheirOutcomes) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork() on this platform";
  struct Case {
    int sig;
    rt::Outcome expected;
  };
  for (const auto& [sig, expected] :
       {Case{SIGFPE, rt::Outcome::kFpe}, Case{SIGABRT, rt::Outcome::kAssert}}) {
    rt::VarRegistry registry;
    const solver::Assignment inputs;
    minimpi::LaunchSpec spec = base_spec(registry, inputs, 1);
    const int raise_sig = sig;
    spec.program = [raise_sig](rt::RuntimeContext&, minimpi::Comm&) {
      (void)std::raise(raise_sig);
    };
    SandboxStats stats;
    const minimpi::RunResult run =
        run_sandboxed(spec, fig2_table(), SandboxOptions{}, &stats);
    EXPECT_TRUE(stats.signal_kill) << "signal " << sig;
    EXPECT_EQ(run.job_outcome(), expected) << "signal " << sig;
  }
}

TEST(Supervisor, UninstrumentedInfiniteLoopIsHangKilled) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork() on this platform";
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  minimpi::LaunchSpec spec = base_spec(registry, inputs, 2);
  spec.timeout = std::chrono::milliseconds(200);
  spec.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    br(ctx, Fig2Site::kYLow, sym::SymInt(1) < sym::SymInt(2));
    if (world.raw_rank() == 0) {
      // No branch events, no MPI calls: evades the step budget AND the
      // cooperative world deadline.  In-process this would wedge the
      // launcher's join forever.
      volatile bool spin = true;
      while (spin) {
      }
    }
    world.barrier();
  };

  SandboxOptions options;
  options.hang_timeout = std::chrono::milliseconds(1000);
  SandboxStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  const minimpi::RunResult run =
      run_sandboxed(spec, fig2_table(), options, &stats);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_TRUE(stats.forked);
  EXPECT_TRUE(stats.hang_kill);
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kTimeout);
  EXPECT_NE(run.job_message().find("hang timeout"), std::string::npos)
      << run.job_message();
  // The watchdog fired, not some 30 s default.
  EXPECT_LT(elapsed, std::chrono::seconds(20));
  // Coverage flushed before the wedge is harvested.
  EXPECT_TRUE(run.merged_coverage().covered(
      sym::branch_id(static_cast<sym::SiteId>(Fig2Site::kYLow), true)));
}

TEST(Supervisor, MpiLoopEndsAtTheVirtualDeadlineBeforeTheWatchdog) {
  // A loop of MPI calls with no branch event is ended by the per-call cost
  // on the job clock: 1 s of job time is 100 000 calls, far less wall time
  // than the derived watchdog's 2 x 1 s + 2 s.
  if (!sandbox_supported()) GTEST_SKIP() << "no fork() on this platform";
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  minimpi::LaunchSpec spec = base_spec(registry, inputs, 2);
  spec.timeout = std::chrono::milliseconds(1000);
  spec.program = [](rt::RuntimeContext&, minimpi::Comm& world) {
    for (;;) world.barrier();
  };
  SandboxStats stats;
  const minimpi::RunResult run =
      run_sandboxed(spec, fig2_table(), SandboxOptions{}, &stats);
  EXPECT_TRUE(stats.forked);
  EXPECT_FALSE(stats.hang_kill);
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kTimeout);
  EXPECT_EQ(run.job_message(), "test wall-clock timeout");
}

#ifndef COMPI_TEST_ASAN
TEST(Supervisor, ChildMemoryLimitContainsRunawayAllocation) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork() on this platform";
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  minimpi::LaunchSpec spec = base_spec(registry, inputs, 1);
  spec.program = [](rt::RuntimeContext&, minimpi::Comm&) {
    // Way past the 64 MiB RLIMIT_AS below; must fail inside the child.
    std::vector<char> hog(512u << 20, 1);
    (void)hog.size();
  };
  SandboxOptions options;
  options.child_mem_mb = 64;
  SandboxStats stats;
  const minimpi::RunResult run =
      run_sandboxed(spec, fig2_table(), options, &stats);
  EXPECT_TRUE(stats.forked);
  EXPECT_TRUE(rt::is_fault(run.job_outcome())) << run.job_message();
}
#endif  // !COMPI_TEST_ASAN

TEST(Supervisor, ChaosRankCrashMatchesInProcessRun) {
  if (!sandbox_supported()) GTEST_SKIP() << "no fork() on this platform";
  // Every rank flushes its branch BEFORE its first MPI call and the
  // injected crash lands deterministically at that call, so outcome AND
  // coverage must be identical in-process vs. sandboxed.
  const auto program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    const sym::SymInt x = ctx.input_int_capped("x", 100);
    br(ctx, Fig2Site::kXLow, x < sym::SymInt(1));
    world.barrier();
  };
  minimpi::FaultPlan chaos;
  chaos.seed = 7;
  chaos.crash_rank = 1;
  chaos.crash_at_call = 1;

  rt::VarRegistry in_proc_registry;
  const solver::Assignment inputs;
  minimpi::LaunchSpec spec = base_spec(in_proc_registry, inputs, 3);
  spec.program = program;
  spec.chaos = chaos;
  const minimpi::RunResult in_proc = minimpi::launch(spec, fig2_table());
  ASSERT_TRUE(rt::is_fault(in_proc.job_outcome()));

  rt::VarRegistry sandbox_registry;
  spec.registry = &sandbox_registry;
  SandboxStats stats;
  const minimpi::RunResult sandboxed =
      run_sandboxed(spec, fig2_table(), SandboxOptions{}, &stats);

  EXPECT_TRUE(stats.forked);
  // The injected fault is caught IN the child and reported over the pipe —
  // no real signal, no synthesized result.
  EXPECT_FALSE(stats.signal_kill);
  EXPECT_FALSE(stats.hang_kill);
  EXPECT_EQ(sandboxed.job_outcome(), in_proc.job_outcome());
  EXPECT_EQ(sandboxed.job_message(), in_proc.job_message());
  EXPECT_EQ(sandboxed.merged_coverage().covered_ids(),
            in_proc.merged_coverage().covered_ids());
}

}  // namespace
}  // namespace compi::sandbox
