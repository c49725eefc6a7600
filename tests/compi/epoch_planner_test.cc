// The epoch planner on its own: cuts and deals computed from the epoch
// start, the options, the lease grant and a hand-built row window, with no
// campaign built.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "compi/driver.h"
#include "compi/driver_internal.h"
#include "compi/work_source.h"

namespace compi {
namespace {

using detail::EpochPlanner;
using detail::kSliceOrdinals;

CampaignOptions options(int workers, int iterations = 10000) {
  CampaignOptions opts;
  opts.workers = workers;
  opts.iterations = iterations;
  opts.checkpoint_interval = 0;
  return opts;
}

/// Appends `count` rows of `worker`, each with a path of `path_length`.
void add_rows(IterationHistory& rows, int worker, std::size_t path_length,
              int count) {
  for (int i = 0; i < count; ++i) {
    IterationRecord r;
    r.iteration = static_cast<int>(rows.size());
    r.worker = worker;
    r.constraint_set_size = path_length;
    rows.push_back(r);
  }
}

long dealt_to(const std::vector<int>& deal, int worker) {
  return std::count(deal.begin(), deal.end(), worker);
}

TEST(EpochPlanner, SharesAreInverselyProportionalToMeanPathLengthPlusOne) {
  const CampaignOptions opts = options(2);
  IterationHistory rows;
  add_rows(rows, 0, 1, 100);  // mean path + 1 = 2
  add_rows(rows, 1, 5, 100);  // mean path + 1 = 6
  const std::vector<int> deal = EpochPlanner(opts, false).deal(0, 400, rows);
  // Each worker also holds one pseudo-row at the window's mean (801/201),
  // so the shares are 101/(200 + m) and 101/(600 + m): close to 3 : 1.
  const double m = 801.0 / 201.0;
  const double s0 = 101.0 / (200.0 + m), s1 = 101.0 / (600.0 + m);
  EXPECT_NEAR(dealt_to(deal, 0), 400.0 * s0 / (s0 + s1), 1.0);
  EXPECT_EQ(dealt_to(deal, 0) + dealt_to(deal, 1), 400);
}

TEST(EpochPlanner, AWorkerWithoutRowsGetsTheWindowMean) {
  const CampaignOptions opts = options(3);
  IterationHistory rows;
  add_rows(rows, 0, 4, 50);
  add_rows(rows, 1, 4, 50);  // worker 2 has run nothing yet
  const std::vector<int> deal = EpochPlanner(opts, false).deal(0, 300, rows);
  for (int w = 0; w < 3; ++w) EXPECT_NEAR(dealt_to(deal, w), 100, 1) << w;
}

TEST(EpochPlanner, OnlyTheLastNTimesLRowsCount) {
  const CampaignOptions opts = options(2);
  IterationHistory rows;
  add_rows(rows, 1, 1000, 1000);  // long paths, but outside the window
  for (int i = 0; i < 2 * kSliceOrdinals; ++i) add_rows(rows, i % 2, 0, 1);
  const std::vector<int> deal =
      EpochPlanner(opts, false).deal(0, 2 * kSliceOrdinals, rows);
  EXPECT_EQ(dealt_to(deal, 0), kSliceOrdinals);
  EXPECT_EQ(dealt_to(deal, 1), kSliceOrdinals);

  // One more long row of worker 1 inside the window tips the deal.
  add_rows(rows, 1, 1000, 1);
  const std::vector<int> tipped =
      EpochPlanner(opts, false).deal(0, 2 * kSliceOrdinals, rows);
  EXPECT_GT(dealt_to(tipped, 0), dealt_to(tipped, 1));
}

TEST(EpochPlanner, TiesGoToTheNextWorkerInTurnFromTheEpochStart) {
  // Four equal shares of a quarter each tie exactly at every ordinal.
  const CampaignOptions opts = options(4);
  const IterationHistory none;
  const EpochPlanner planner(opts, false);
  EXPECT_EQ(planner.deal(0, 8, none),
            (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
  EXPECT_EQ(planner.deal(5, 4, none), (std::vector<int>{1, 2, 3, 0}));
  EXPECT_EQ(planner.deal(3, 4, none), (std::vector<int>{3, 0, 1, 2}));
}

TEST(EpochPlanner, ALoneWorkersEpochIsOneOrdinal) {
  CampaignOptions opts = options(1, 100);
  opts.checkpoint_interval = 25;
  const EpochPlanner planner(opts, true);
  EXPECT_EQ(planner.cut(0), 1);
  EXPECT_EQ(planner.cut(57), 58);
  const detail::Epoch epoch = planner.plan(57, IterationHistory{});
  EXPECT_EQ(epoch.begin, 57);
  EXPECT_EQ(epoch.worker, std::vector<int>{0});
  EXPECT_TRUE(planner.plan(100, IterationHistory{}).worker.empty());
}

TEST(EpochPlanner, CutsFallAtTheBudgetAndTheNextCheckpointOnlyWhenLogged) {
  CampaignOptions opts = options(2, 1000);
  opts.checkpoint_interval = 25;
  const EpochPlanner logged(opts, true), unlogged(opts, false);
  EXPECT_EQ(logged.cut(0), 25);
  EXPECT_EQ(logged.cut(30), 50);
  EXPECT_EQ(logged.cut(990), 1000);
  EXPECT_EQ(unlogged.cut(0), 2 * kSliceOrdinals);
  EXPECT_EQ(unlogged.cut(900), 1000);
  EXPECT_EQ(unlogged.cut(1000), 1000);

  opts.checkpoint_interval = 0;  // snapshots off: nothing to align with
  EXPECT_EQ(EpochPlanner(opts, true).cut(0), 2 * kSliceOrdinals);
}

TEST(EpochPlanner, AHaltNeverCutsAnEpoch) {
  CampaignOptions opts = options(2, 300);
  opts.checkpoint_interval = 25;
  opts.halt_after_iterations = 30;
  const EpochPlanner planner(opts, true);
  EXPECT_EQ(planner.cut(25), 50) << "the halt waits for the plan's boundary";
  EXPECT_FALSE(planner.halts_at(0, 25));
  EXPECT_TRUE(planner.halts_at(0, 50));
  EXPECT_FALSE(planner.halts_at(30, 50)) << "counted from the resume point";
  EXPECT_FALSE(planner.halts_at(0, 300)) << "the budget's end is no halt";

  opts.halt_after_iterations = 0;
  EXPECT_FALSE(EpochPlanner(opts, true).halts_at(0, 50));
}

/// Grants at most `grant` ordinals per lease and records each request.
class FakeWorkSource : public WorkSource {
 public:
  explicit FakeWorkSource(int grant) : grant_(grant) {}
  int acquire(int wanted) override {
    wanted_.push_back(wanted);
    return std::min(wanted, grant_);
  }
  void report(const WorkDelta&) override {}
  std::vector<sym::BranchId> take_remote_coverage() override { return {}; }
  std::vector<std::uint64_t> take_remote_interleavings() override {
    return {};
  }
  const std::vector<int>& wanted() const { return wanted_; }

 private:
  int grant_;
  std::vector<int> wanted_;
};

TEST(EpochPlanner, ALeaseGrantShrinksTheEpoch) {
  FakeWorkSource source(100);
  CampaignOptions opts = options(2, 1000);
  opts.work_source = &source;
  const EpochPlanner planner(opts, false);
  const detail::Epoch epoch = planner.plan(0, IterationHistory{});
  EXPECT_EQ(source.wanted(), std::vector<int>{2 * kSliceOrdinals});
  EXPECT_EQ(epoch.end(), 100);
  EXPECT_FALSE(epoch.source_stopped);
  EXPECT_EQ(dealt_to(epoch.worker, 0), 50);

  // At the budget there is nothing to lease.
  EXPECT_TRUE(planner.plan(1000, IterationHistory{}).worker.empty());
  EXPECT_EQ(source.wanted().size(), 1u);
}

TEST(EpochPlanner, AZeroGrantStopsTheCampaign) {
  FakeWorkSource source(0);
  CampaignOptions opts = options(2, 1000);
  opts.work_source = &source;
  const detail::Epoch epoch =
      EpochPlanner(opts, false).plan(40, IterationHistory{});
  EXPECT_TRUE(epoch.worker.empty());
  EXPECT_EQ(epoch.begin, 40);
  EXPECT_TRUE(epoch.source_stopped);
}

}  // namespace
}  // namespace compi
