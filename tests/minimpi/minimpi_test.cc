// MiniMPI semantics tests: point-to-point, collectives, Comm_split, and
// launcher fault handling — checked against sequential oracles.
#include <gtest/gtest.h>

#include <numeric>

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

/// Runs `program` on `nprocs` ranks and returns the result, failing the
/// test if the job did not finish cleanly (unless `expect_fault`).
RunResult run(int nprocs, Program program, bool expect_fault = false) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.program = std::move(program);
  spec.nprocs = nprocs;
  spec.focus = 0;
  spec.registry = &registry;
  spec.timeout = std::chrono::milliseconds(5000);
  RunResult result = launch(spec, dummy_table());
  if (!expect_fault) {
    EXPECT_EQ(result.job_outcome(), rt::Outcome::kOk)
        << result.job_message();
  }
  return result;
}

TEST(MiniMpiP2p, SendRecvDeliversPayload) {
  run(2, [](rt::RuntimeContext&, Comm& world) {
    if (world.raw_rank() == 0) {
      const std::vector<std::int64_t> data{1, 2, 3};
      world.send(std::span<const std::int64_t>(data), 1, 5);
    } else {
      std::vector<std::int64_t> got(3);
      const Status st = world.recv(std::span<std::int64_t>(got), 0, 5);
      EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3}));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
    }
  });
}

TEST(MiniMpiP2p, TagMatchingSkipsNonMatching) {
  run(2, [](rt::RuntimeContext&, Comm& world) {
    if (world.raw_rank() == 0) {
      const std::vector<int> a{10};
      const std::vector<int> b{20};
      world.send(std::span<const int>(a), 1, /*tag=*/1);
      world.send(std::span<const int>(b), 1, /*tag=*/2);
    } else {
      std::vector<int> got(1);
      world.recv(std::span<int>(got), 0, 2);  // tag 2 first
      EXPECT_EQ(got[0], 20);
      world.recv(std::span<int>(got), 0, 1);
      EXPECT_EQ(got[0], 10);
    }
  });
}

TEST(MiniMpiP2p, AnySourceReceives) {
  run(3, [](rt::RuntimeContext&, Comm& world) {
    if (world.raw_rank() != 0) {
      const std::vector<int> data{world.raw_rank()};
      world.send(std::span<const int>(data), 0, 9);
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        std::vector<int> got(1);
        world.recv(std::span<int>(got), kAnySource, 9);
        sum += got[0];
      }
      EXPECT_EQ(sum, 3);  // ranks 1 + 2
    }
  });
}

TEST(MiniMpiP2p, SendrecvExchanges) {
  run(2, [](rt::RuntimeContext&, Comm& world) {
    const int me = world.raw_rank();
    const std::vector<int> mine{me + 100};
    std::vector<int> theirs(1);
    world.sendrecv(std::span<const int>(mine), 1 - me, 4,
                   std::span<int>(theirs), 1 - me, 4);
    EXPECT_EQ(theirs[0], (1 - me) + 100);
  });
}

TEST(MiniMpiCollectives, BarrierCompletes) {
  run(8, [](rt::RuntimeContext&, Comm& world) {
    for (int i = 0; i < 10; ++i) world.barrier();
  });
}

TEST(MiniMpiCollectives, BcastFromEveryRoot) {
  run(4, [](rt::RuntimeContext&, Comm& world) {
    for (int root = 0; root < 4; ++root) {
      std::vector<double> data(3, world.raw_rank() == root ? 7.5 : 0.0);
      world.bcast(std::span<double>(data), root);
      EXPECT_EQ(data, (std::vector<double>(3, 7.5))) << "root " << root;
    }
  });
}

TEST(MiniMpiCollectives, AllreduceSumMatchesOracle) {
  constexpr int kN = 5;
  run(kN, [](rt::RuntimeContext&, Comm& world) {
    const std::vector<std::int64_t> in{world.raw_rank() + 1, 10};
    std::vector<std::int64_t> out(2);
    world.allreduce(std::span<const std::int64_t>(in),
                    std::span<std::int64_t>(out), Op::kSum);
    EXPECT_EQ(out[0], kN * (kN + 1) / 2);  // 1+2+...+N
    EXPECT_EQ(out[1], 10 * kN);
  });
}

TEST(MiniMpiCollectives, AllreduceMinMaxProd) {
  run(3, [](rt::RuntimeContext&, Comm& world) {
    const std::vector<std::int64_t> in{world.raw_rank() + 1};
    std::vector<std::int64_t> out(1);
    world.allreduce(std::span<const std::int64_t>(in),
                    std::span<std::int64_t>(out), Op::kMin);
    EXPECT_EQ(out[0], 1);
    world.allreduce(std::span<const std::int64_t>(in),
                    std::span<std::int64_t>(out), Op::kMax);
    EXPECT_EQ(out[0], 3);
    world.allreduce(std::span<const std::int64_t>(in),
                    std::span<std::int64_t>(out), Op::kProd);
    EXPECT_EQ(out[0], 6);
  });
}

TEST(MiniMpiCollectives, ReduceOnlyRootHasResult) {
  run(4, [](rt::RuntimeContext&, Comm& world) {
    const std::vector<std::int64_t> in{1};
    std::vector<std::int64_t> out{-1};
    world.reduce(std::span<const std::int64_t>(in),
                 std::span<std::int64_t>(out), Op::kSum, 2);
    if (world.raw_rank() == 2) {
      EXPECT_EQ(out[0], 4);
    } else {
      EXPECT_EQ(out[0], -1);
    }
  });
}

TEST(MiniMpiCollectives, AllgatherConcatenatesByRank) {
  run(3, [](rt::RuntimeContext&, Comm& world) {
    const std::vector<int> in{world.raw_rank() * 10, world.raw_rank() * 10 + 1};
    std::vector<int> out(6);
    world.allgather(std::span<const int>(in), std::span<int>(out));
    EXPECT_EQ(out, (std::vector<int>{0, 1, 10, 11, 20, 21}));
  });
}

TEST(MiniMpiCollectives, ScatterSlicesRootBuffer) {
  run(3, [](rt::RuntimeContext&, Comm& world) {
    std::vector<int> in;
    if (world.raw_rank() == 0) in = {100, 101, 110, 111, 120, 121};
    else in.resize(6);
    std::vector<int> out(2);
    world.scatter(std::span<const int>(in), std::span<int>(out), 0);
    EXPECT_EQ(out[0], 100 + world.raw_rank() * 10);
    EXPECT_EQ(out[1], 101 + world.raw_rank() * 10);
  });
}

TEST(MiniMpiCollectives, GatherCollectsAtRoot) {
  run(3, [](rt::RuntimeContext&, Comm& world) {
    const std::vector<int> in{world.raw_rank()};
    std::vector<int> out(3, -1);
    world.gather(std::span<const int>(in), std::span<int>(out), 1);
    if (world.raw_rank() == 1) {
      EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
    }
  });
}

TEST(MiniMpiSplit, GroupsByColorOrdersByKey) {
  run(4, [](rt::RuntimeContext& ctx, Comm& world) {
    const int me = world.raw_rank();
    // Colors: {0,1} even/odd; key reverses rank order inside the group.
    Comm sub = world.split(ctx, me % 2, -me);
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.raw_size(), 2);
    // Group members sorted by key: higher rank gets local rank 0.
    const int expected_local = me < 2 ? 1 : 0;
    EXPECT_EQ(sub.raw_rank(), expected_local);
  });
}

TEST(MiniMpiSplit, UndefinedColorGetsInvalidComm) {
  run(3, [](rt::RuntimeContext& ctx, Comm& world) {
    const int me = world.raw_rank();
    Comm sub = world.split(ctx, me == 0 ? -1 : 0, me);
    if (me == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.raw_size(), 2);
    }
  });
}

TEST(MiniMpiSplit, SubCommunicatorCollectivesWork) {
  run(4, [](rt::RuntimeContext& ctx, Comm& world) {
    Comm sub = world.split(ctx, world.raw_rank() % 2, world.raw_rank());
    std::vector<std::int64_t> out(1);
    const std::vector<std::int64_t> in{world.raw_rank()};
    sub.allreduce(std::span<const std::int64_t>(in),
                  std::span<std::int64_t>(out), Op::kSum);
    // evens: 0+2, odds: 1+3
    EXPECT_EQ(out[0], world.raw_rank() % 2 == 0 ? 2 : 4);
  });
}

TEST(MiniMpiSplit, SubCommP2pIsIsolatedFromWorld) {
  run(4, [](rt::RuntimeContext& ctx, Comm& world) {
    Comm sub = world.split(ctx, world.raw_rank() / 2, world.raw_rank());
    // Local ranks 0 and 1 in each half exchange within the sub-comm.
    const std::vector<int> mine{world.raw_rank()};
    std::vector<int> theirs(1);
    sub.sendrecv(std::span<const int>(mine), 1 - sub.raw_rank(), 2,
                 std::span<int>(theirs), 1 - sub.raw_rank(), 2);
    const int expected =
        world.raw_rank() % 2 == 0 ? world.raw_rank() + 1 : world.raw_rank() - 1;
    EXPECT_EQ(theirs[0], expected);
  });
}

TEST(MiniMpiSplit, MappingRowRecordedForFocus) {
  const RunResult result =
      run(4, [](rt::RuntimeContext& ctx, Comm& world) {
        (void)world.split(ctx, world.raw_rank() % 2, world.raw_rank());
      });
  const rt::TestLog& log = result.focus_log();
  ASSERT_EQ(log.rank_mapping.size(), 1u);
  EXPECT_EQ(log.rank_mapping[0], (std::vector<int>{0, 2}))
      << "focus (rank 0, even) sees its group's global ranks by local order";
}

TEST(MiniMpiLauncher, FocusRunsHeavyOthersLight) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.nprocs = 4;
  spec.focus = 2;
  spec.registry = &registry;
  spec.program = [](rt::RuntimeContext& ctx, Comm& world) {
    const sym::SymInt r = world.comm_rank(ctx);
    EXPECT_EQ(r.is_symbolic(), world.raw_rank() == 2);
  };
  const RunResult result = launch(spec, dummy_table());
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kOk);
  EXPECT_TRUE(result.focus_log().heavy);
  EXPECT_FALSE(result.ranks[0].log.heavy);
}

TEST(MiniMpiLauncher, OneWayRunsEveryRankHeavy) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.nprocs = 3;
  spec.focus = 0;
  spec.one_way = true;
  spec.registry = &registry;
  spec.program = [](rt::RuntimeContext& ctx, Comm&) {
    EXPECT_TRUE(ctx.heavy());
  };
  const RunResult result = launch(spec, dummy_table());
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kOk);
  for (const RankResult& r : result.ranks) EXPECT_TRUE(r.log.heavy);
}

TEST(MiniMpiLauncher, FaultAbortsPeersAndIsReported) {
  const RunResult result = run(
      4,
      [](rt::RuntimeContext& ctx, Comm& world) {
        if (world.raw_rank() == 1) {
          throw rt::SimulatedSegfault("boom on rank 1");
        }
        // Peers block in a collective and must be unwound, not hung.
        world.barrier();
        world.barrier();
      },
      /*expect_fault=*/true);
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kSegfault);
  EXPECT_EQ(result.ranks[1].outcome, rt::Outcome::kSegfault);
  int aborted = 0;
  for (const RankResult& r : result.ranks) {
    aborted += r.outcome == rt::Outcome::kAborted ? 1 : 0;
  }
  EXPECT_GE(aborted, 1) << "blocked peers report kAborted";
}

TEST(MiniMpiLauncher, DeadlockHitsWallClockTimeout) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.nprocs = 2;
  spec.focus = 0;
  spec.registry = &registry;
  spec.timeout = std::chrono::milliseconds(300);
  spec.program = [](rt::RuntimeContext&, Comm& world) {
    if (world.raw_rank() == 0) {
      std::vector<int> buf(1);
      world.recv(std::span<int>(buf), 1, 99);  // never sent: deadlock
    } else {
      world.barrier();  // mismatched collective
    }
  };
  const RunResult result = launch(spec, dummy_table());
  // Both ranks are blocked in MPI: a proven deadlock, not the deadline.
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kDeadlock);
  EXPECT_EQ(result.job_message(),
            "deadlock: rank 0 waits recv(src=1, tag=99), rank 1 waits "
            "collective");
}

TEST(MiniMpiLauncher, StepBudgetIsTimeoutOutcome) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.nprocs = 1;
  spec.focus = 0;
  spec.registry = &registry;
  spec.step_budget = 100;
  spec.program = [](rt::RuntimeContext& ctx, Comm&) {
    for (;;) {
      (void)ctx.branch(0, sym::SymBool(true));  // infinite loop
    }
  };
  const RunResult result = launch(spec, dummy_table());
  EXPECT_EQ(result.job_outcome(), rt::Outcome::kTimeout);
}

TEST(MiniMpiLauncher, MergedCoverageUnionsAllRanks) {
  rt::VarRegistry registry;
  LaunchSpec spec;
  spec.nprocs = 2;
  spec.focus = 0;
  spec.registry = &registry;
  spec.program = [](rt::RuntimeContext& ctx, Comm& world) {
    // Rank 0 covers the true arm; rank 1 the false arm.
    (void)ctx.branch(0, sym::SymBool(world.raw_rank() == 0));
  };
  const RunResult result = launch(spec, dummy_table());
  const rt::CoverageBitmap merged = result.merged_coverage();
  EXPECT_TRUE(merged.covered(sym::branch_id(0, true)));
  EXPECT_TRUE(merged.covered(sym::branch_id(0, false)));
}

}  // namespace
}  // namespace compi::minimpi
