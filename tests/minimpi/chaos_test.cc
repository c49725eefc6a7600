// Fault-injection (chaos) tests: every injection kind must end within the
// job timeout with the correct per-rank outcomes — the injected outcome on
// the victim, kAborted (or kTimeout) on the peers — and never hang or be
// reported as the program's deadlock.
// Delays are job time on the world's virtual clock, never wall time.
#include <gtest/gtest.h>

#include <chrono>

#include "minimpi/fault_plan.h"
#include "minimpi/launcher.h"

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

/// Launches `program` on `nprocs` ranks under `chaos`, asserting the job
/// finishes within `timeout` plus scheduling slack (no deadlock).
RunResult run_chaos(int nprocs, Program program, const FaultPlan& chaos,
                    std::chrono::milliseconds timeout = 500ms) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.program = std::move(program);
  spec.nprocs = nprocs;
  spec.focus = 0;
  spec.registry = &registry;
  spec.timeout = timeout;
  spec.chaos = chaos;
  const auto t0 = std::chrono::steady_clock::now();
  RunResult result = launch(spec, dummy_table());
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, timeout + 5s) << "injected faults must never deadlock";
  return result;
}

Program barrier_program() {
  return [](rt::RuntimeContext&, Comm& world) { world.barrier(); };
}

TEST(Chaos, DisabledPlanIsANoop) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  const RunResult result = run_chaos(4, barrier_program(), plan);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kOk) << result.job_message();
}

class ChaosCrashTest : public ::testing::TestWithParam<rt::Outcome> {};

TEST_P(ChaosCrashTest, VictimGetsInjectedOutcomePeersUnwind) {
  FaultPlan plan;
  plan.crash_rank = 2;
  plan.crash_at_call = 1;
  plan.crash_outcome = GetParam();
  const RunResult result = run_chaos(4, barrier_program(), plan);

  EXPECT_EQ(result.ranks[2].outcome, GetParam());
  EXPECT_NE(result.ranks[2].message.find("injected"), std::string::npos)
      << result.ranks[2].message;
  for (int rank : {0, 1, 3}) {
    EXPECT_EQ(result.ranks[rank].outcome, rt::Outcome::kAborted)
        << "rank " << rank << " was blocked in the barrier and must be "
        << "unwound when the victim dies";
  }
  EXPECT_EQ(result.job_outcome(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllFaultKinds, ChaosCrashTest,
                         ::testing::Values(rt::Outcome::kSegfault,
                                           rt::Outcome::kFpe,
                                           rt::Outcome::kAssert,
                                           rt::Outcome::kTimeout,
                                           rt::Outcome::kMpiError),
                         [](const auto& info) {
                           std::string name(rt::to_string(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Chaos, CrashAtLaterCallFiresAtThatCall) {
  FaultPlan plan;
  plan.crash_rank = 1;
  plan.crash_at_call = 3;
  const RunResult result = run_chaos(
      2,
      [](rt::RuntimeContext&, Comm& world) {
        world.barrier();  // call 1: survives
        world.barrier();  // call 2: survives
        world.barrier();  // call 3: victim crashes here
      },
      plan);
  EXPECT_EQ(result.ranks[1].outcome, rt::Outcome::kSegfault);
  EXPECT_EQ(result.ranks[0].outcome, rt::Outcome::kAborted);
}

TEST(Chaos, DroppedMessageTripsTheWatchdog) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 1.0;  // every outgoing message silently lost
  const RunResult result = run_chaos(
      2,
      [](rt::RuntimeContext&, Comm& world) {
        if (world.raw_rank() == 0) {
          const std::vector<int> data{42};
          world.send(std::span<const int>(data), 1, 0);
        } else {
          std::vector<int> got(1);
          world.recv(std::span<int>(got), 0, 0);  // blocks forever
        }
      },
      plan, /*timeout=*/300ms);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kTimeout);
  EXPECT_EQ(result.ranks[1].outcome, rt::Outcome::kTimeout);
}

TEST(Chaos, LostMessageEndsAtTheDeadlineNotAsDeadlock) {
  // Rank 1 ends up blocked in the same receive whether rank 0 never sent
  // the message (the program's deadlock) or sent it and chaos dropped it.
  // Only the first is the program's fault: a job that lost a message ends
  // with the deadline's verdict, as a real lost message would.
  const auto program = [](bool send) -> Program {
    return [send](rt::RuntimeContext&, Comm& world) {
      if (world.raw_rank() == 0) {
        const std::vector<int> data{42};
        if (send) world.send(std::span<const int>(data), 1, 0);
      } else {
        std::vector<int> got(1);
        world.recv(std::span<int>(got), 0, 0);
      }
    };
  };
  FaultPlan drops;
  drops.seed = 7;
  drops.drop_rate = 1.0;
  const RunResult lost = run_chaos(2, program(true), drops, 300ms);
  EXPECT_EQ(lost.job_outcome(), rt::Outcome::kTimeout) << lost.job_message();
  EXPECT_EQ(lost.ranks[0].outcome, rt::Outcome::kOk);
  EXPECT_EQ(lost.ranks[1].outcome, rt::Outcome::kTimeout);

  const RunResult never_sent = run_chaos(2, program(false), {}, 300ms);
  EXPECT_EQ(never_sent.job_outcome(), rt::Outcome::kDeadlock)
      << never_sent.job_message();
  EXPECT_EQ(never_sent.ranks[1].outcome, rt::Outcome::kDeadlock);
}

TEST(Chaos, DelayedMessagesStillDeliver) {
  FaultPlan plan;
  plan.seed = 3;
  plan.delay_rate = 1.0;
  plan.delay = std::chrono::milliseconds(10);
  const RunResult result = run_chaos(
      2,
      [](rt::RuntimeContext&, Comm& world) {
        if (world.raw_rank() == 0) {
          const std::vector<int> data{7};
          world.send(std::span<const int>(data), 1, 0);
        } else {
          std::vector<int> got(1);
          world.recv(std::span<int>(got), 0, 0);
          EXPECT_EQ(got[0], 7);
        }
      },
      plan, /*timeout=*/2000ms);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kOk) << result.job_message();
}

/// Rank 0 sends `messages` ints to rank 1, which counts what it receives
/// in `*received`.
Program stream_program(int messages, int* received) {
  return [messages, received](rt::RuntimeContext&, Comm& world) {
    const std::vector<int> data{7};
    std::vector<int> got(1);
    for (int i = 0; i < messages; ++i) {
      if (world.raw_rank() == 0) {
        world.send(std::span<const int>(data), 1, 0);
      } else {
        world.recv(std::span<int>(got), 0, 0);
        ++*received;
      }
    }
  };
}

TEST(Chaos, DelaysAreJobTimeNotWallTime) {
  // 200 delays of 10 ms add up to 2 s of job time; no thread sleeps it.
  FaultPlan plan;
  plan.seed = 3;
  plan.delay_rate = 1.0;
  plan.delay = 10ms;
  int received = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult result =
      run_chaos(2, stream_program(200, &received), plan, /*timeout=*/30'000ms);
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kOk) << result.job_message();
  EXPECT_EQ(received, 200);
  EXPECT_LT(took, 100ms);
}

TEST(Chaos, DelaysPastTheBudgetTimeOutAtTheSameMessageEveryRun) {
  // Message k lands at about k x 10 ms of job time, so nine arrive inside
  // the 100 ms budget and the tenth would land past it: the job ends as a
  // timeout there, however busy the host is.
  FaultPlan plan;
  plan.seed = 3;
  plan.delay_rate = 1.0;
  plan.delay = 10ms;
  for (int run = 0; run < 3; ++run) {
    int received = 0;
    const RunResult result =
        run_chaos(2, stream_program(50, &received), plan, /*timeout=*/100ms);
    EXPECT_EQ(result.job_outcome(), rt::Outcome::kTimeout) << "run " << run;
    EXPECT_EQ(result.job_message(), "test wall-clock timeout");
    EXPECT_EQ(received, 9) << "run " << run;
  }
}

TEST(Chaos, StalledCollectiveTimesOutWholeJob) {
  FaultPlan plan;
  plan.stall_rank = 1;
  plan.stall_at_collective = 1;
  const RunResult result =
      run_chaos(3, barrier_program(), plan, /*timeout=*/300ms);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kTimeout);
  // The stalling rank and every peer stuck in the barrier are unwound by
  // the deadline watchdog — nobody reports success.
  for (const RankResult& r : result.ranks) {
    EXPECT_NE(r.outcome, rt::Outcome::kOk);
  }
}

TEST(Chaos, SecondCollectiveStallAllowsTheFirst) {
  FaultPlan plan;
  plan.stall_rank = 0;
  plan.stall_at_collective = 2;
  int first_barrier_done = 0;
  const RunResult result = run_chaos(
      2,
      [&](rt::RuntimeContext&, Comm& world) {
        world.barrier();  // collective 1: completes
        if (world.raw_rank() == 0) ++first_barrier_done;
        world.barrier();  // collective 2: rank 0 stalls
      },
      plan, /*timeout=*/300ms);
  EXPECT_EQ(first_barrier_done, 1);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kTimeout);
}

TEST(Chaos, EngineDecisionsAreDeterministic) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop_rate = 0.3;
  plan.delay_rate = 0.2;
  ChaosEngine a(plan, 4);
  ChaosEngine b(plan, 4);
  for (int rank = 0; rank < 4; ++rank) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(a.should_drop(rank), b.should_drop(rank))
          << "rank " << rank << " decision " << i;
      EXPECT_EQ(a.next_delay(rank), b.next_delay(rank));
    }
  }
}

TEST(Chaos, DelaysAreDrawnPerMessageWithoutDrops) {
  // World::post asks should_drop, then next_delay, once per send.  With no
  // drop rate the send count must still advance, or one draw would decide
  // every message of the rank.
  FaultPlan plan;
  plan.seed = 11;
  plan.delay_rate = 0.5;
  ChaosEngine engine(plan, 1);
  int delayed = 0;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(engine.should_drop(0));
    delayed += engine.next_delay(0).count() > 0 ? 1 : 0;
  }
  EXPECT_GE(delayed, 400);
  EXPECT_LE(delayed, 600);
}

TEST(Chaos, DropRateIsRoughlyHonored) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_rate = 0.25;
  ChaosEngine engine(plan, 1);
  int dropped = 0;
  constexpr int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) dropped += engine.should_drop(0) ? 1 : 0;
  EXPECT_GT(dropped, kTrials / 8);
  EXPECT_LT(dropped, kTrials / 2);
}

TEST(Chaos, DifferentSeedsGiveDifferentNoise) {
  FaultPlan a_plan;
  a_plan.seed = 1;
  a_plan.drop_rate = 0.5;
  FaultPlan b_plan = a_plan;
  b_plan.seed = 2;
  ChaosEngine a(a_plan, 1);
  ChaosEngine b(b_plan, 1);
  int differing = 0;
  for (int i = 0; i < 256; ++i) {
    differing += a.should_drop(0) != b.should_drop(0) ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

}  // namespace
}  // namespace compi::minimpi
