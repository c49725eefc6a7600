// Ranks as fibers: placement, scale, stack reuse, run-queue order, and the
// exact all-blocked rule (a job no rank can advance ends at once, as a
// deadlock or with the deadline's verdict, instead of riding out its
// deadline).
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "minimpi/fiber.h"
#include "minimpi/launcher.h"
#include "obs/trace.h"

namespace compi::minimpi {
namespace {

using namespace std::chrono_literals;

const rt::BranchTable& dummy_table() {
  static const rt::BranchTable table = [] {
    rt::BranchTable t;
    t.add_site("main", "s0");
    t.finalize();
    return t;
  }();
  return table;
}

RunResult run(int nprocs, Program program,
              std::chrono::milliseconds timeout = 30'000ms,
              FaultPlan chaos = {}) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.program = std::move(program);
  spec.nprocs = nprocs;
  spec.focus = 0;
  spec.registry = &registry;
  spec.timeout = timeout;
  spec.chaos = chaos;
  return launch(spec, dummy_table());
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Fibers, EveryRankRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  const RunResult result = run(8, [&](rt::RuntimeContext&, Comm& world) {
    world.barrier();  // park and resume once before looking
    seen[world.raw_rank()] = std::this_thread::get_id();
  });
  ASSERT_EQ(result.job_outcome(), rt::Outcome::kOk) << result.job_message();
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

Program ring_program(std::vector<long>* sums) {
  return [sums](rt::RuntimeContext&, Comm& world) {
    const int me = world.raw_rank();
    const int n = world.raw_size();
    const std::vector<long> mine{me};
    std::vector<long> from_left(1, -1);
    world.sendrecv(std::span<const long>(mine), (me + 1) % n, 3,
                   std::span<long>(from_left), (me + n - 1) % n, 3);
    EXPECT_EQ(from_left[0], (me + n - 1) % n);
    std::vector<long> sum(1, 0);
    world.allreduce(std::span<const long>(from_left), std::span<long>(sum),
                    Op::kSum);
    (*sums)[me] = sum[0];
  };
}

TEST(Fibers, RingOf256RanksCompletesInProcess) {
  constexpr int kRanks = 256;
  std::vector<long> sums(kRanks, -1);
  const RunResult result = run(kRanks, ring_program(&sums));
  ASSERT_EQ(result.job_outcome(), rt::Outcome::kOk) << result.job_message();
  const long expected = static_cast<long>(kRanks) * (kRanks - 1) / 2;
  for (const long s : sums) EXPECT_EQ(s, expected);
}

TEST(Fibers, SecondLaunchMapsNoNewStacks) {
  std::vector<long> sums(16, -1);
  ASSERT_EQ(run(16, ring_program(&sums)).job_outcome(), rt::Outcome::kOk);
  const std::size_t mapped = fiber_stacks_mapped();
  EXPECT_GE(mapped, 16u);
  ASSERT_EQ(run(16, ring_program(&sums)).job_outcome(), rt::Outcome::kOk);
  ASSERT_EQ(run(8, ring_program(&sums)).job_outcome(), rt::Outcome::kOk);
  EXPECT_EQ(fiber_stacks_mapped(), mapped);
}

TEST(Fibers, RunQueueIsFifoInRankOrder) {
  // Every rank logs before and after a barrier: the first pass runs ranks
  // in rank order up to the barrier; the last arriver (rank 3) continues,
  // then the woken ranks follow in the order they parked.
  std::vector<int> order;
  const RunResult result = run(4, [&](rt::RuntimeContext&, Comm& world) {
    order.push_back(world.raw_rank());
    world.barrier();
    order.push_back(10 + world.raw_rank());
  });
  ASSERT_EQ(result.job_outcome(), rt::Outcome::kOk) << result.job_message();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 13, 10, 11, 12}));
}

#ifndef COMPI_OBS_DISABLED
TEST(Fibers, TraceTrackIsFiberLocal) {
  std::vector<int> before(4, -1), after(4, -1);
  const int caller_track = obs::thread_track();
  const RunResult result = run(4, [&](rt::RuntimeContext&, Comm& world) {
    before[world.raw_rank()] = obs::thread_track();
    world.barrier();  // every other rank sets its own track meanwhile
    after[world.raw_rank()] = obs::thread_track();
  });
  ASSERT_EQ(result.job_outcome(), rt::Outcome::kOk) << result.job_message();
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(before[r], r + 1);
    EXPECT_EQ(after[r], r + 1);
  }
  EXPECT_EQ(obs::thread_track(), caller_track);
}
#endif

TEST(Fibers, CrossedReceivesTimeOutAtOnce) {
  // Each rank receives from the other before sending: no rank can ever
  // run again, and both are blocked in MPI.  That is a proven deadlock,
  // delivered now instead of a timeout after 30 s.
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult result = run(2, [](rt::RuntimeContext&, Comm& world) {
    const int peer = 1 - world.raw_rank();
    std::vector<int> got(1, -1);
    const std::vector<int> mine{world.raw_rank()};
    world.recv(std::span<int>(got), peer, 0);
    world.send(std::span<const int>(mine), peer, 0);
  });
  EXPECT_LT(seconds_since(t0), 1.0);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kDeadlock);
  EXPECT_EQ(result.job_message(),
            "deadlock: rank 0 waits recv(src=1, tag=0), rank 1 waits "
            "recv(src=0, tag=0); cycle: 0->1->0");
  EXPECT_EQ(result.ranks[0].outcome, rt::Outcome::kDeadlock);
  EXPECT_EQ(result.ranks[1].outcome, rt::Outcome::kAborted);
}

TEST(Fibers, ChaosStallTimesOutAtOnce) {
  // Rank 1 never arrives at the barrier; the others wait for it.  A
  // stalled rank is not blocked in MPI, so this is no deadlock: only the
  // deadline could end it, and the job ends now with its verdict.
  FaultPlan plan;
  plan.stall_rank = 1;
  plan.stall_at_collective = 1;
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult result = run(
      3, [](rt::RuntimeContext&, Comm& world) { world.barrier(); }, 30'000ms,
      plan);
  EXPECT_LT(seconds_since(t0), 1.0);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kTimeout);
  EXPECT_EQ(result.job_message(), "test wall-clock timeout");
  for (const RankResult& r : result.ranks) {
    EXPECT_NE(r.outcome, rt::Outcome::kOk);
  }
}

TEST(Fibers, MpiLoopWithoutBranchesEndsAtTheVirtualDeadline) {
  // No instrumented branch, so the step budget never fires: only the
  // per-call cost on the job clock ends this loop.
  const RunResult result = run(
      2,
      [](rt::RuntimeContext&, Comm& world) {
        for (;;) world.barrier();
      },
      1000ms);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kTimeout);
  EXPECT_EQ(result.job_message(), "test wall-clock timeout");
}

TEST(FibersDeathTest, SwitchInsideACatchHandlerIsRefused) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      (void)run(2,
                [](rt::RuntimeContext&, Comm& world) {
                  try {
                    throw 1;
                  } catch (int) {
                    world.barrier();  // would park inside the handler
                  }
                }),
      "exception in flight");
}

}  // namespace
}  // namespace compi::minimpi
