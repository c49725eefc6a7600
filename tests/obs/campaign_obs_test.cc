// End-to-end observability: a campaign run with tracing and metrics on
// must leave behind a loadable Chrome trace with one track per rank plus
// the driver, a Prometheus dump with the campaign counters, a phase
// breakdown whose shares account for the whole wall clock, and (under
// chaos) the injected fault as an event on the victim rank's track.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "compi/driver.h"
#include "compi/report.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "targets/targets.h"
#include "tests/compi/fig2_target.h"
#include "tests/obs/json_util.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
namespace json = compi::testing::json;
using compi::testing::fig2_target;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_obs_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CampaignOptions obs_opts(const TempDir& tmp) {
  CampaignOptions opts;
  opts.seed = 7;
  opts.iterations = 6;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.confirm_bugs = false;
  opts.trace = true;
  opts.metrics = true;
  opts.log_dir = tmp.path.string();
  return opts;
}

TEST(CampaignObs, MetricsPromIsWrittenWithCampaignCounters) {
  TempDir tmp;
  // The registry is process-global: earlier campaigns in this process
  // have counted their iterations too.
  const std::int64_t before =
      obs::registry()
          .counter("compi_iterations_total", "Campaign iterations executed")
          .value();
  const CampaignResult result = Campaign(fig2_target(), obs_opts(tmp)).run();
  ASSERT_EQ(result.iterations.size(), 6u);

  const std::string prom = slurp(tmp.path / "metrics.prom");
  ASSERT_FALSE(prom.empty());
  EXPECT_NE(prom.find("# TYPE compi_iterations_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE compi_exec_us histogram"), std::string::npos);
  EXPECT_NE(prom.find("compi_exec_us_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(prom.find("compi_mpi_collectives_total"), std::string::npos);
  // The run above added its 6 iterations to the counter.
  EXPECT_NE(prom.find("compi_iterations_total " + std::to_string(before + 6) +
                      "\n"),
            std::string::npos)
      << prom;
}

/// Shares of a phase profile: each in [0, 1], together the whole wall.
void expect_shares_account_for_wall_clock(const PhaseBreakdown& breakdown) {
  ASSERT_EQ(breakdown.phases.size(), 3u);
  EXPECT_GT(breakdown.total_seconds, 0.0);
  double share_sum = 0.0;
  for (const PhaseStats& phase : breakdown.phases) {
    EXPECT_GE(phase.share, 0.0) << phase.name;
    EXPECT_LE(phase.share, 1.0) << phase.name;
    share_sum += phase.share;
  }
  EXPECT_NEAR(share_sum, 1.0, 0.02);
}

TEST(CampaignObs, PhaseBreakdownSharesAccountForWallClock) {
  TempDir tmp;
  const CampaignResult result = Campaign(fig2_target(), obs_opts(tmp)).run();
  const PhaseBreakdown breakdown = compute_phase_breakdown(result);
  expect_shares_account_for_wall_clock(breakdown);
  // Execute and solve carry per-iteration percentiles; overhead has no
  // per-iteration samples and reports n/a.
  EXPECT_GE(breakdown.phases[0].p50_us, 0.0);
  EXPECT_GE(breakdown.phases[0].p95_us, breakdown.phases[0].p50_us);
  EXPECT_LT(breakdown.phases[2].p50_us, 0.0);

  // Four workers sum four threads' execute and solve time, so their shares
  // are of four wall clocks, not one: IMB's execute and solve time each
  // outgrow a single wall clock at this worker count.
  CampaignOptions workers;
  workers.seed = 1;
  workers.iterations = 1500;
  workers.workers = 4;
  const CampaignResult parallel =
      Campaign(targets::make_mini_imb_target(), workers).run();
  ASSERT_EQ(parallel.workers_used, 4u);
  expect_shares_account_for_wall_clock(compute_phase_breakdown(parallel));
}

#ifndef COMPI_OBS_DISABLED

TEST(CampaignObs, TraceJsonHasDriverAndRankTracks) {
  TempDir tmp;
  const CampaignResult result = Campaign(fig2_target(), obs_opts(tmp)).run();
  obs::tracer().set_enabled(false);
  ASSERT_FALSE(result.iterations.empty());

  const json::Value root = json::parse(slurp(tmp.path / "trace.json"));
  ASSERT_TRUE(root.at("traceEvents").is_array());

  std::set<int> event_tids;
  std::set<std::string> track_names;
  for (const json::Value& e : root.at("traceEvents").array) {
    const std::string ph = e.at("ph").string;
    if (ph == "M") {
      if (e.at("name").string == "thread_name") {
        track_names.insert(e.at("args").at("name").string);
      }
      continue;
    }
    event_tids.insert(static_cast<int>(e.at("tid").number));
  }
  // Driver track plus at least two rank tracks (the campaign launched >= 4
  // ranks per iteration).
  EXPECT_TRUE(event_tids.count(0) == 1) << "driver track missing";
  int rank_tracks = 0;
  for (const int tid : event_tids) {
    if (tid >= 1) ++rank_tracks;
  }
  EXPECT_GE(rank_tracks, 2);
  EXPECT_TRUE(track_names.count("driver") == 1);
  EXPECT_TRUE(track_names.count("rank 0") == 1);
  EXPECT_TRUE(track_names.count("rank 1") == 1);

  // The driver track carries the campaign envelope and iteration spans.
  bool saw_campaign = false, saw_iteration = false;
  for (const json::Value& e : root.at("traceEvents").array) {
    if (!e.has("name") || e.at("ph").string == "M") continue;
    if (e.at("name").string == "campaign") {
      saw_campaign = true;
      EXPECT_EQ(e.at("tid").number, 0.0);
    }
    if (e.at("name").string == "iteration") saw_iteration = true;
  }
  EXPECT_TRUE(saw_campaign);
  EXPECT_TRUE(saw_iteration);
}

TEST(CampaignObs, InjectedCrashAppearsOnVictimRankTrack) {
  TempDir tmp;
  CampaignOptions opts = obs_opts(tmp);
  opts.iterations = 3;
  opts.chaos.crash_rank = 1;
  opts.chaos.crash_at_call = 1;
  const CampaignResult result = Campaign(fig2_target(), opts).run();
  obs::tracer().set_enabled(false);
  ASSERT_FALSE(result.iterations.empty());

  const json::Value root = json::parse(slurp(tmp.path / "trace.json"));
  bool found = false;
  for (const json::Value& e : root.at("traceEvents").array) {
    if (e.has("name") && e.at("name").string == "chaos_crash") {
      found = true;
      EXPECT_EQ(e.at("cat").string, "chaos");
      // Rank 1's track is tid 2 (tid 0 = driver, tid r+1 = rank r).
      EXPECT_EQ(e.at("tid").number, 2.0);
    }
  }
  EXPECT_TRUE(found) << "injected crash must be visible on the victim track";
}

#endif  // COMPI_OBS_DISABLED

TEST(CampaignObs, BugBudgetStopStillFlushesMetricsTraceAndJournal) {
  // Regression: a campaign that terminates early once --max-bugs is hit
  // must still flush every observability artifact — the stop is graceful,
  // not a simulated kill.
  TempDir tmp;
  CampaignOptions opts = obs_opts(tmp);
  opts.iterations = 300;  // budget large enough to derive y == 77
  opts.max_bugs = 1;
  opts.journal = true;
  const CampaignResult result =
      Campaign(fig2_target(/*with_bug=*/true), opts).run();
#ifndef COMPI_OBS_DISABLED
  obs::tracer().set_enabled(false);
#endif

  ASSERT_FALSE(result.bugs.empty()) << "the seeded bug must be derivable";
  ASSERT_LT(result.iterations.size(), 300u) << "must stop before the budget";

  EXPECT_FALSE(slurp(tmp.path / "metrics.prom").empty())
      << "metrics must be flushed on early termination";
  EXPECT_FALSE(slurp(tmp.path / "trace.json").empty())
      << "trace must be flushed on early termination";

  // The journal records the stop and stays aligned with iterations.csv.
  std::size_t iteration_events = 0;
  bool saw_budget_event = false;
  for (const obs::ParsedEvent& ev :
       obs::read_journal(tmp.path / "journal.jsonl")) {
    if (ev.type == "iteration") ++iteration_events;
    if (ev.type == "bug_budget_exhausted") saw_budget_event = true;
  }
  EXPECT_EQ(iteration_events, result.iterations.size());
  EXPECT_TRUE(saw_budget_event);
  // The summary still ran (graceful stop, not a kill).
  EXPECT_FALSE(slurp(tmp.path / "summary.txt").empty());
  EXPECT_FALSE(slurp(tmp.path / "ledger.csv").empty());
}

TEST(CampaignObs, IterationsCsvHasSolverColumnsAndAllRows) {
  TempDir tmp;
  const CampaignResult result = Campaign(fig2_target(), obs_opts(tmp)).run();
  ASSERT_EQ(result.iterations.size(), 6u);
  const std::string csv = slurp(tmp.path / "iterations.csv");
  ASSERT_FALSE(csv.empty());
  EXPECT_NE(csv.find("solver_nodes,retries"), std::string::npos) << csv;
  // Header + one row per iteration (the writer flushes incrementally, so
  // every completed iteration must already be on disk).
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, result.iterations.size() + 1);
}

}  // namespace
}  // namespace compi
