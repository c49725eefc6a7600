// Tests for wildcard-receive matching, which every MiniMPI receive goes
// through (minimpi/world.h): record/replay of ANY_SOURCE decisions,
// posting-order ordinals for irecv, exact deadlock detection (wait-for
// cycle, no wall-clock kill), orphan message detection at finalize, and
// replay divergence fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "minimpi/launcher.h"

namespace compi::minimpi {
namespace {

const rt::BranchTable& dummy_table() {
  static const rt::BranchTable table = [] {
    rt::BranchTable t;
    t.add_site("main", "s0");
    t.finalize();
    return t;
  }();
  return table;
}

RunResult run_scheduled(int nprocs, Program program, MatchPlan plan = {},
                        std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(10'000)) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.program = std::move(program);
  spec.nprocs = nprocs;
  spec.focus = 0;
  spec.registry = &registry;
  spec.timeout = timeout;
  spec.match_plan = std::move(plan);
  return launch(spec, dummy_table());
}

/// Fan-in: ranks 1..n-1 send their rank to 0; a barrier guarantees every
/// message is already delivered before rank 0's wildcard receives, so the
/// feasible set at each decision is deterministic.
Program fan_in_program(std::vector<int>* received) {
  return [received](rt::RuntimeContext&, Comm& world) {
    const int me = world.raw_rank();
    if (me != 0) {
      const std::vector<int> mine{me};
      world.send(std::span<const int>(mine), 0, 9);
    }
    world.barrier();
    if (me == 0) {
      for (int i = 0; i < world.raw_size() - 1; ++i) {
        std::vector<int> got(1, -1);
        const Status st = world.recv(std::span<int>(got), kAnySource, 9);
        received->push_back(st.source);
        EXPECT_EQ(got[0], st.source);
      }
    }
  };
}

TEST(MatchScheduler, RecordsWildcardDecisionsWithFeasibleSets) {
  std::vector<int> received;
  const RunResult run = run_scheduled(3, fan_in_program(&received));
  ASSERT_EQ(run.job_outcome(), rt::Outcome::kOk) << run.job_message();
  EXPECT_FALSE(run.match_diverged);
  // Default choice is the lowest feasible source, deterministically.
  EXPECT_EQ(received, (std::vector<int>{1, 2}));
  ASSERT_EQ(run.match_trace.size(), 2u);
  EXPECT_EQ(run.match_trace[0].rank, 0);
  EXPECT_EQ(run.match_trace[0].seq, 0);
  EXPECT_EQ(run.match_trace[0].chosen_src, 1);
  EXPECT_EQ(run.match_trace[0].feasible, (std::vector<int>{1, 2}));
  EXPECT_EQ(run.match_trace[1].seq, 1);
  EXPECT_EQ(run.match_trace[1].chosen_src, 2);
  // The alternative matched already: only rank 1's message is left.
  EXPECT_EQ(run.match_trace[1].feasible, (std::vector<int>{2}));
}

TEST(MatchScheduler, ReplaysPrescribedChoices) {
  std::vector<int> received;
  MatchPlan plan;
  plan.push_back({0, 0, 2});  // flip the first decision to sender 2
  const RunResult run = run_scheduled(3, fan_in_program(&received), plan);
  ASSERT_EQ(run.job_outcome(), rt::Outcome::kOk) << run.job_message();
  EXPECT_FALSE(run.match_diverged);
  EXPECT_EQ(received, (std::vector<int>{2, 1}));
  ASSERT_EQ(run.match_trace.size(), 2u);
  EXPECT_EQ(run.match_trace[0].chosen_src, 2);
  EXPECT_EQ(run.match_trace[1].chosen_src, 1);
}

TEST(MatchScheduler, SerialRunsAreDeterministic) {
  // Same program, no plan: the decision vector must be identical across
  // runs (the scheduler default is a function of state, not timing).
  std::vector<int> first;
  const RunResult a = run_scheduled(4, fan_in_program(&first));
  ASSERT_EQ(a.job_outcome(), rt::Outcome::kOk);
  for (int i = 0; i < 3; ++i) {
    std::vector<int> again;
    const RunResult b = run_scheduled(4, fan_in_program(&again));
    ASSERT_EQ(b.job_outcome(), rt::Outcome::kOk);
    EXPECT_EQ(again, first);
    ASSERT_EQ(b.match_trace.size(), a.match_trace.size());
    for (std::size_t d = 0; d < a.match_trace.size(); ++d) {
      EXPECT_EQ(b.match_trace[d].chosen_src, a.match_trace[d].chosen_src);
      EXPECT_EQ(b.match_trace[d].feasible, a.match_trace[d].feasible);
    }
  }
}

TEST(MatchScheduler, IrecvReservesDecisionOrdinalsInPostingOrder) {
  std::vector<int> order;
  const RunResult run = run_scheduled(
      3, [&order](rt::RuntimeContext&, Comm& world) {
        const int me = world.raw_rank();
        if (me != 0) {
          const std::vector<int> mine{me};
          world.send(std::span<const int>(mine), 0, 2);
        }
        world.barrier();
        if (me == 0) {
          std::vector<int> a(1, -1), b(1, -1);
          Request ra = world.irecv(std::span<int>(a), kAnySource, 2);
          Request rb = world.irecv(std::span<int>(b), kAnySource, 2);
          rb.wait();  // waiting out of order must not reorder the matching
          ra.wait();
          order = {a[0], b[0]};
        }
      });
  ASSERT_EQ(run.job_outcome(), rt::Outcome::kOk) << run.job_message();
  // Posting order decides: the first-posted receive took the default
  // (lowest) sender even though it was waited on second.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(run.match_trace.size(), 2u);
  EXPECT_EQ(run.match_trace[0].seq, 0);
  EXPECT_EQ(run.match_trace[0].chosen_src, 1);
  EXPECT_EQ(run.match_trace[1].seq, 1);
  EXPECT_EQ(run.match_trace[1].chosen_src, 2);
}

TEST(MatchScheduler, CircularWaitIsExactDeadlockNotTimeout) {
  // Two ranks, each receiving from the other before sending: the classic
  // circular wait.  The scheduler must prove it instantly — with a
  // generous wall-clock budget the watchdog never fires, so a kTimeout
  // here would mean the detector failed.
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult run = run_scheduled(
      2,
      [](rt::RuntimeContext&, Comm& world) {
        const int me = world.raw_rank();
        const int peer = 1 - me;
        std::vector<int> got(1, -1);
        const std::vector<int> mine{me};
        world.recv(std::span<int>(got), peer, 0);
        world.send(std::span<const int>(mine), peer, 0);
      },
      {}, std::chrono::milliseconds(60'000));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kDeadlock) << run.job_message();
  EXPECT_NE(run.job_outcome(), rt::Outcome::kTimeout);
  EXPECT_LT(elapsed, 30.0) << "deadlock must not ride the watchdog";
  // The message names the wait-for cycle over the specific-source edges.
  EXPECT_NE(run.job_message().find("cycle:"), std::string::npos)
      << run.job_message();
  // The victim reports kDeadlock; its peer is unwound as collateral.
  int deadlocked = 0;
  for (const RankResult& r : run.ranks) {
    if (r.outcome == rt::Outcome::kDeadlock) ++deadlocked;
  }
  EXPECT_EQ(deadlocked, 1);
}

TEST(MatchScheduler, RecvFromFinishedRankIsDeadlock) {
  const RunResult run = run_scheduled(
      2, [](rt::RuntimeContext&, Comm& world) {
        if (world.raw_rank() == 0) {
          std::vector<int> got(1, -1);
          world.recv(std::span<int>(got), 1, 7);  // rank 1 never sends
        }
      });
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kDeadlock) << run.job_message();
}

TEST(MatchScheduler, RecvAgainstCollectiveIsDeadlock) {
  // Rank 0 blocks in a receive while rank 1 enters a barrier rank 0 will
  // never reach: mixed recv/collective deadlock.
  const RunResult run = run_scheduled(
      2, [](rt::RuntimeContext&, Comm& world) {
        if (world.raw_rank() == 0) {
          std::vector<int> got(1, -1);
          world.recv(std::span<int>(got), 1, 1);
        } else {
          world.barrier();
        }
      });
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kDeadlock) << run.job_message();
}

TEST(MatchScheduler, CollectiveLoopsDoNotFalseDeadlock) {
  // Ranks cycling through collectives all wait at every rendezvous but the
  // last arriver's; the detector must stay quiet for the entire run.
  const RunResult run = run_scheduled(
      4, [](rt::RuntimeContext&, Comm& world) {
        std::vector<long> acc(1, world.raw_rank());
        for (int round = 0; round < 25; ++round) {
          world.barrier();
          std::vector<long> out(1, 0);
          world.allreduce(std::span<const long>(acc), std::span<long>(out),
                          Op::kSum);
          acc = out;
        }
      });
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kOk) << run.job_message();
}

TEST(MatchScheduler, UnreceivedMessageIsOrphanAtFinalize) {
  const RunResult run = run_scheduled(
      2, [](rt::RuntimeContext&, Comm& world) {
        if (world.raw_rank() == 1) {
          const std::vector<int> mine{41};
          world.send(std::span<const int>(mine), 0, 5);
        }
        world.barrier();
      });
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kOrphanMessage)
      << run.job_message();
  EXPECT_EQ(run.ranks[0].outcome, rt::Outcome::kOrphanMessage);
  EXPECT_EQ(run.ranks[1].outcome, rt::Outcome::kOk);
  EXPECT_NE(run.ranks[0].message.find("unreceived"), std::string::npos);
}

TEST(MatchScheduler, FaultedJobsSkipTheOrphanCheck) {
  // A peer fault unwinds ranks mid-conversation; their leftover messages
  // are collateral, not a matching bug.
  const RunResult run = run_scheduled(
      2, [](rt::RuntimeContext& ctx, Comm& world) {
        if (world.raw_rank() == 1) {
          const std::vector<int> mine{1};
          world.send(std::span<const int>(mine), 0, 5);
          ctx.check(false, "seeded fault after send");
        }
      });
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kAssert);
  for (const RankResult& r : run.ranks) {
    EXPECT_NE(r.outcome, rt::Outcome::kOrphanMessage);
  }
}

TEST(MatchScheduler, DeadPrescriptionFallsBackInsteadOfDeadlocking) {
  // The plan forces rank 0's wildcard receive to take rank 2's message,
  // but rank 2 exits without sending.  Replay has diverged: the scheduler
  // must drop the prescription and match rank 1's message, not declare a
  // deadlock that only exists under the stale plan.
  MatchPlan plan;
  plan.push_back({0, 0, 2});
  std::vector<int> got(1, -1);
  const RunResult run = run_scheduled(
      3,
      [&got](rt::RuntimeContext&, Comm& world) {
        const int me = world.raw_rank();
        if (me == 1) {
          const std::vector<int> mine{1};
          world.send(std::span<const int>(mine), 0, 3);
        } else if (me == 0) {
          world.recv(std::span<int>(got), kAnySource, 3);
        }
      },
      plan);
  EXPECT_EQ(run.job_outcome(), rt::Outcome::kOk) << run.job_message();
  EXPECT_TRUE(run.match_diverged);
  EXPECT_EQ(got[0], 1);
}

}  // namespace
}  // namespace compi::minimpi
