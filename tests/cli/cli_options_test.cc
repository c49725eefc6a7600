#include "cli/cli_options.h"

#include <gtest/gtest.h>

namespace compi::cli {
namespace {

ParseResult parse(std::initializer_list<std::string> args) {
  return parse_cli(std::vector<std::string>(args));
}

TEST(CliOptions, DefaultsMatchPaperSetup) {
  const ParseResult r = parse({});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_EQ(r.config.target, "susy");
  EXPECT_EQ(r.config.campaign.iterations, 500);
  EXPECT_EQ(r.config.campaign.initial_nprocs, 8);
  EXPECT_EQ(r.config.campaign.initial_focus, 0);
  EXPECT_EQ(r.config.campaign.max_procs, 16);
  EXPECT_TRUE(r.config.campaign.reduction);
  EXPECT_TRUE(r.config.campaign.framework);
  EXPECT_FALSE(r.config.random_baseline);
}

TEST(CliOptions, ParsesEveryTarget) {
  for (const std::string t : {"susy", "susy-fixed", "hpl", "imb"}) {
    const ParseResult r = parse({"--target=" + t});
    ASSERT_FALSE(r.error.has_value()) << t;
    EXPECT_EQ(r.config.target, t);
  }
  EXPECT_TRUE(parse({"--target=nope"}).error.has_value());
}

TEST(CliOptions, ParsesNumericFlags) {
  const ParseResult r = parse({"--iterations=1234", "--cap=600",
                               "--nprocs=4", "--focus=2", "--max-procs=12",
                               "--dfs-phase=77", "--depth-bound=300",
                               "--seed=99", "--time-budget=30"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_EQ(r.config.campaign.iterations, 1234);
  EXPECT_EQ(r.config.cap, 600);
  EXPECT_EQ(r.config.campaign.initial_nprocs, 4);
  EXPECT_EQ(r.config.campaign.initial_focus, 2);
  EXPECT_EQ(r.config.campaign.max_procs, 12);
  EXPECT_EQ(r.config.campaign.dfs_phase_iterations, 77);
  EXPECT_EQ(r.config.campaign.depth_bound, 300);
  EXPECT_EQ(r.config.campaign.seed, 99u);
  EXPECT_DOUBLE_EQ(r.config.campaign.time_budget_seconds, 30.0);
}

TEST(CliOptions, ParsesStrategies) {
  struct Case {
    std::string name;
    SearchKind kind;
  };
  for (const auto& [name, kind] :
       {Case{"bounded-dfs", SearchKind::kBoundedDfs},
        Case{"dfs", SearchKind::kDfs},
        Case{"random-branch", SearchKind::kRandomBranch},
        Case{"uniform-random", SearchKind::kUniformRandom},
        Case{"cfg", SearchKind::kCfg}}) {
    const ParseResult r = parse({"--strategy=" + name});
    ASSERT_FALSE(r.error.has_value()) << name;
    EXPECT_EQ(r.config.campaign.search, kind) << name;
  }
  EXPECT_TRUE(parse({"--strategy=bfs"}).error.has_value());
}

TEST(CliOptions, AblationFlags) {
  const ParseResult r =
      parse({"--no-reduction", "--no-framework", "--one-way", "--random"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_FALSE(r.config.campaign.reduction);
  EXPECT_FALSE(r.config.campaign.framework);
  EXPECT_TRUE(r.config.campaign.one_way);
  EXPECT_TRUE(r.config.random_baseline);
}

TEST(CliOptions, RejectsMalformedNumbers) {
  EXPECT_TRUE(parse({"--iterations=abc"}).error.has_value());
  EXPECT_TRUE(parse({"--iterations=0"}).error.has_value());
  EXPECT_TRUE(parse({"--nprocs=-3"}).error.has_value());
  EXPECT_TRUE(parse({"--cap="}).error.has_value());
}

TEST(CliOptions, RejectsUnknownFlags) {
  const ParseResult r = parse({"--does-not-exist"});
  ASSERT_TRUE(r.error.has_value());
  EXPECT_NE(r.error->find("does-not-exist"), std::string::npos);
}

TEST(CliOptions, FocusMustFitNprocs) {
  EXPECT_TRUE(parse({"--nprocs=4", "--focus=4"}).error.has_value());
  EXPECT_FALSE(parse({"--nprocs=4", "--focus=3"}).error.has_value());
}

TEST(CliOptions, LogDirAndMetaFlags) {
  const ParseResult r =
      parse({"--log-dir=/tmp/x", "--curve", "--list-targets", "--help"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_EQ(r.config.campaign.log_dir, "/tmp/x");
  EXPECT_TRUE(r.config.print_curve);
  EXPECT_TRUE(r.config.list_targets);
  EXPECT_TRUE(r.config.show_help);
}

TEST(CliOptions, ParsesRobustnessFlags) {
  const ParseResult r = parse(
      {"--retry-max=5", "--checkpoint-interval=10",
       "--chaos-seed=77", "--chaos-drop-rate=0.25", "--chaos-crash-rank=3",
       "--chaos-crash-at=9", "--no-confirm-bugs"});
  ASSERT_FALSE(r.error.has_value()) << *r.error;
  EXPECT_EQ(r.config.campaign.retry_max, 5);
  EXPECT_EQ(r.config.campaign.checkpoint_interval, 10);
  EXPECT_EQ(r.config.campaign.chaos.seed, 77u);
  EXPECT_DOUBLE_EQ(r.config.campaign.chaos.drop_rate, 0.25);
  EXPECT_EQ(r.config.campaign.chaos.crash_rank, 3);
  EXPECT_EQ(r.config.campaign.chaos.crash_at_call, 9);
  EXPECT_FALSE(r.config.campaign.confirm_bugs);
  EXPECT_TRUE(r.config.campaign.chaos.enabled());
}

TEST(CliOptions, ParsesSandboxFlags) {
  const ParseResult r =
      parse({"--isolate", "--hang-timeout-ms=2500", "--child-mem-mb=512"});
  ASSERT_FALSE(r.error.has_value()) << *r.error;
  EXPECT_TRUE(r.config.campaign.isolate);
  EXPECT_EQ(r.config.campaign.hang_timeout_ms, 2500);
  EXPECT_EQ(r.config.campaign.child_mem_mb, 512);

  const ParseResult defaults = parse({});
  ASSERT_FALSE(defaults.error.has_value());
  EXPECT_FALSE(defaults.config.campaign.isolate)
      << "in-process launch must stay the default";
  EXPECT_EQ(defaults.config.campaign.hang_timeout_ms, 0);
  EXPECT_EQ(defaults.config.campaign.child_mem_mb, 0);
}

TEST(CliOptions, RejectsBadSandboxValues) {
  EXPECT_TRUE(parse({"--hang-timeout-ms=abc"}).error.has_value());
  EXPECT_TRUE(parse({"--hang-timeout-ms=-1"}).error.has_value());
  EXPECT_TRUE(parse({"--hang-timeout-ms=86400001"}).error.has_value());
  EXPECT_TRUE(parse({"--child-mem-mb=-5"}).error.has_value());
  EXPECT_TRUE(parse({"--child-mem-mb=1048577"}).error.has_value());
}

// --isolate has one engine, the fork server's persistent executor: the
// flag alone selects it, with or without workers, and the usage text
// names no knob that picks between engines.
TEST(CliOptions, ParsesForkServerFlags) {
  const ParseResult r = parse({"--isolate", "--workers=4"});
  ASSERT_FALSE(r.error.has_value()) << *r.error;
  EXPECT_TRUE(r.config.campaign.isolate);
  EXPECT_EQ(r.config.campaign.workers, 4);

  const std::string u = usage();
  EXPECT_NE(u.find("--isolate"), std::string::npos);
  EXPECT_NE(u.find("persistent executor"), std::string::npos);
  for (const char* removed : {"--batch-", "--fork-server"}) {
    EXPECT_EQ(u.find(removed), std::string::npos) << removed;
  }
}

// The knobs that picked between engines are gone and must not parse, with
// any value.
TEST(CliOptions, RejectsBadForkServerValues) {
  for (const char* removed :
       {"--batch-reset", "--batch-warmup=5", "--fork-server=off",
        "--fork-server=yes", "--fork-server-restarts=7"}) {
    const ParseResult r = parse({"--isolate", removed});
    ASSERT_TRUE(r.error.has_value()) << removed;
    EXPECT_NE(r.error->find("unknown flag"), std::string::npos) << *r.error;
  }
}

TEST(CliOptions, RejectsBadRobustnessValues) {
  EXPECT_TRUE(parse({"--chaos-drop-rate=1.5"}).error.has_value());
  EXPECT_TRUE(parse({"--chaos-drop-rate=-0.1"}).error.has_value());
  EXPECT_TRUE(parse({"--chaos-drop-rate=abc"}).error.has_value());
  EXPECT_TRUE(parse({"--retry-max=11"}).error.has_value());
  EXPECT_TRUE(parse({"--retry-max=-1"}).error.has_value());
  // Retries never pause, so there is no backoff flag to accept.
  EXPECT_TRUE(parse({"--retry-backoff-ms=40"}).error.has_value());
  EXPECT_TRUE(parse({"--chaos-crash-at=0"}).error.has_value());
  EXPECT_TRUE(parse({"--resume="}).error.has_value());
}

TEST(CliOptions, KeepRankLogsTakesACountOrAll) {
  EXPECT_EQ(parse({}).config.campaign.keep_rank_logs, 16);
  EXPECT_EQ(parse({"--keep-rank-logs=0"}).config.campaign.keep_rank_logs, 0);
  EXPECT_EQ(parse({"--keep-rank-logs=40"}).config.campaign.keep_rank_logs, 40);
  const ParseResult all = parse({"--keep-rank-logs=all"});
  ASSERT_FALSE(all.error.has_value()) << *all.error;
  EXPECT_EQ(all.config.campaign.keep_rank_logs, -1);
}

TEST(CliOptions, RejectsBadKeepRankLogsValues) {
  // -1 is the in-memory spelling of "all", not a CLI value.
  EXPECT_TRUE(parse({"--keep-rank-logs=-1"}).error.has_value());
  EXPECT_TRUE(parse({"--keep-rank-logs=-16"}).error.has_value());
  EXPECT_TRUE(parse({"--keep-rank-logs="}).error.has_value());
  EXPECT_TRUE(parse({"--keep-rank-logs=some"}).error.has_value());
  EXPECT_TRUE(parse({"--keep-rank-logs=ALL"}).error.has_value());
  EXPECT_TRUE(parse({"--keep-rank-logs=3x"}).error.has_value());
}

TEST(CliOptions, ResumeNamesTheSessionDirectory) {
  const ParseResult r = parse({"--resume=/tmp/session"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_TRUE(r.config.campaign.resume);
  EXPECT_EQ(r.config.resume_dir, "/tmp/session");
  EXPECT_EQ(r.config.campaign.log_dir, "/tmp/session");

  // A matching --log-dir is redundant but harmless; a conflicting one is
  // an error, not a silent pick-one.
  EXPECT_FALSE(parse({"--resume=/tmp/s", "--log-dir=/tmp/s"}).error);
  EXPECT_TRUE(parse({"--resume=/tmp/s", "--log-dir=/tmp/other"}).error);
}

TEST(CliOptions, CoordinateSubcommandParsesItsFlags) {
  const ParseResult r =
      parse({"coordinate", "--port=7700", "--budget=480", "--lease-quota=32",
             "--lease-ttl-ms=5000", "--target=imb", "--log-dir=/tmp/coord",
             "--journal", "--serve=0"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_TRUE(r.config.coordinate);
  EXPECT_EQ(r.config.coord_port, 7700);
  EXPECT_EQ(r.config.coord_budget, 480);
  EXPECT_EQ(r.config.coord_lease_quota, 32);
  EXPECT_EQ(r.config.coord_lease_ttl_ms, 5000);
  EXPECT_EQ(r.config.target, "imb");
  EXPECT_EQ(r.config.campaign.log_dir, "/tmp/coord");
  EXPECT_TRUE(r.config.campaign.journal);
  EXPECT_EQ(r.config.campaign.serve_port, 0);

  const ParseResult defaults = parse({"coordinate"});
  ASSERT_FALSE(defaults.error.has_value());
  EXPECT_TRUE(defaults.config.coordinate);
  EXPECT_EQ(defaults.config.coord_port, 0);
  EXPECT_EQ(defaults.config.coord_budget, 1000);
}

TEST(CliOptions, CoordinateRejectsBadValuesAndForeignFlags) {
  EXPECT_TRUE(parse({"coordinate", "--port=65536"}).error.has_value());
  EXPECT_TRUE(parse({"coordinate", "--budget=0"}).error.has_value());
  EXPECT_TRUE(parse({"coordinate", "--lease-quota=0"}).error.has_value());
  EXPECT_TRUE(parse({"coordinate", "--lease-ttl-ms=50"}).error.has_value());
  // Campaign-only flags don't leak into the subcommand.
  EXPECT_TRUE(parse({"coordinate", "--iterations=10"}).error.has_value());
  EXPECT_TRUE(parse({"coordinate", "--connect=h:1"}).error.has_value());
  // --resume names the session, same rule as campaign mode.
  EXPECT_TRUE(parse({"coordinate", "--resume=/tmp/a", "--log-dir=/tmp/b"})
                  .error.has_value());
  const ParseResult resumed = parse({"coordinate", "--resume=/tmp/a"});
  ASSERT_FALSE(resumed.error.has_value());
  EXPECT_TRUE(resumed.config.campaign.resume);
  EXPECT_EQ(resumed.config.campaign.log_dir, "/tmp/a");
}

TEST(CliOptions, ShardFlagsAttachTheCampaignToACoordinator) {
  const ParseResult r = parse(
      {"--connect=127.0.0.1:7700", "--shard-name=rack7",
       "--shard-heartbeat-ms=250"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_EQ(r.config.connect, "127.0.0.1:7700");
  EXPECT_EQ(r.config.shard_name, "rack7");
  EXPECT_EQ(r.config.shard_heartbeat_ms, 250);

  const ParseResult defaults = parse({});
  ASSERT_FALSE(defaults.error.has_value());
  EXPECT_TRUE(defaults.config.connect.empty())
      << "coordinator-off must stay the default";
  EXPECT_EQ(defaults.config.shard_name, "shard");
  EXPECT_EQ(defaults.config.shard_heartbeat_ms, 1000);
}

TEST(CliOptions, RejectsBadShardValues) {
  EXPECT_TRUE(parse({"--connect="}).error.has_value());
  EXPECT_TRUE(parse({"--shard-name="}).error.has_value());
  EXPECT_TRUE(parse({"--shard-heartbeat-ms=10"}).error.has_value());
  EXPECT_TRUE(parse({"--shard-heartbeat-ms=abc"}).error.has_value());
}

TEST(CliOptions, TopFleetAndStallWindowFlags) {
  const ParseResult r = parse({"top", "127.0.0.1:7700", "--fleet",
                               "--frames=2"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_TRUE(r.config.top);
  EXPECT_TRUE(r.config.top_fleet);
  EXPECT_EQ(r.config.top_target, "127.0.0.1:7700");

  const ParseResult plain = parse({"top", "127.0.0.1:7700"});
  ASSERT_FALSE(plain.error.has_value());
  EXPECT_FALSE(plain.config.top_fleet);

  // --stall-window tunes the diagnosis engine in campaign and
  // coordinator mode alike; out-of-range values are rejected.
  const ParseResult campaign = parse({"--stall-window=45"});
  ASSERT_FALSE(campaign.error.has_value());
  EXPECT_DOUBLE_EQ(campaign.config.campaign.stall_window_seconds, 45.0);
  const ParseResult coord = parse({"coordinate", "--stall-window=90"});
  ASSERT_FALSE(coord.error.has_value());
  EXPECT_DOUBLE_EQ(coord.config.campaign.stall_window_seconds, 90.0);
  EXPECT_TRUE(parse({"--stall-window=0"}).error.has_value());
  EXPECT_TRUE(parse({"--stall-window=abc"}).error.has_value());
}

TEST(CliOptions, TraceMergeSubcommandParsesItsInputs) {
  const ParseResult r =
      parse({"trace-merge", "--coordinator=/tmp/coord", "--out=/tmp/m.json",
             "/tmp/shard-a", "/tmp/shard-b"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_TRUE(r.config.trace_merge);
  EXPECT_EQ(r.config.trace_merge_coordinator, "/tmp/coord");
  EXPECT_EQ(r.config.trace_merge_out, "/tmp/m.json");
  ASSERT_EQ(r.config.trace_merge_shards.size(), 2u);
  EXPECT_EQ(r.config.trace_merge_shards[0], "/tmp/shard-a");
  EXPECT_EQ(r.config.trace_merge_shards[1], "/tmp/shard-b");

  // Shards-only merges are fine; no inputs at all is an error.
  ASSERT_FALSE(parse({"trace-merge", "/tmp/a"}).error.has_value());
  EXPECT_TRUE(parse({"trace-merge"}).error.has_value());
  EXPECT_TRUE(parse({"trace-merge", "--bogus=1"}).error.has_value());
}

TEST(CliOptions, UsageMentionsEveryFlag) {
  const std::string u = usage();
  for (const std::string flag :
       {"--iterations", "--strategy", "--cap", "--nprocs", "--max-procs",
        "--seed", "--log-dir", "--no-reduction", "--no-framework",
        "--one-way", "--random", "--list-targets", "--resume",
        "--checkpoint-interval", "--keep-rank-logs", "--retry-max",
        "--chaos-seed", "--chaos-drop-rate", "--chaos-crash-rank",
        "--chaos-crash-at", "--no-confirm-bugs", "--isolate",
        "--hang-timeout-ms", "--child-mem-mb", "--connect", "--shard-name",
        "--shard-heartbeat-ms", "--lease-quota", "--lease-ttl-ms",
        "--stall-window", "--fleet", "trace-merge"}) {
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace compi::cli
