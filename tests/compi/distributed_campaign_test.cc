// Chaos acceptance for distributed campaigns: a coordinator plus real
// campaign shards (Campaign + ShardLink) on loopback must converge to the
// same covered-branch set and bug list as an uninterrupted run when
//   * one shard is killed mid-campaign (abrupt drop, no Finished frame),
//   * the coordinator itself is restarted mid-campaign (kill + --resume),
//   * a shard starts with no coordinator at all, degrades to standalone,
//     and reconciles when the coordinator appears.
// fig2 saturates its 16 reachable branches well inside these budgets, so
// "same set" is exact; mini-IMB uses the superset discipline from the
// parallel-campaign differential tests (chaos may never LOSE coverage).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compi/coordinator.h"
#include "compi/driver.h"
#include "compi/session.h"
#include "compi/shard_link.h"
#include "serve/net_util.h"
#include "targets/targets.h"
#include "tests/compi/fig2_target.h"

#ifdef COMPI_SERVE_POSIX

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_dist_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

template <typename Pred>
bool eventually(Pred pred, int seconds = 20) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

CampaignOptions shard_campaign_opts(int idx, int iterations) {
  CampaignOptions opts;
  opts.seed = 11 + static_cast<std::uint64_t>(idx);
  opts.iterations = iterations;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 30;
  return opts;
}

ShardLinkOptions link_opts(int port, int idx) {
  ShardLinkOptions so;
  so.connect = "127.0.0.1:" + std::to_string(port);
  so.name = "s" + std::to_string(idx);
  so.seed = 11 + static_cast<std::uint64_t>(idx);
  so.heartbeat_ms = 50;
  so.io_timeout_ms = 2000;
  so.reconnect_initial_ms = 20;
  so.reconnect_max_ms = 100;
  so.standalone_after_failures = 1000000;  // never degrade in chaos tests
  so.report_every = 1;
  so.lease_wait_poll_ms = 10;
  return so;
}

/// Runs one shard campaign to completion.  `finish` distinguishes a clean
/// departure (Finished frame) from a simulated kill (socket just closes
/// when the link is destroyed).
void run_shard(const TargetInfo& target, int port, int idx, int iterations,
               bool finish) {
  ShardLink link(link_opts(port, idx));
  (void)link.start();
  CampaignOptions opts = shard_campaign_opts(idx, iterations);
  opts.work_source = &link;
  (void)Campaign(target, opts).run();
  if (finish) link.finish();
}

std::set<std::string> bug_messages(const std::vector<BugRecord>& bugs) {
  std::set<std::string> out;
  for (const BugRecord& b : bugs) out.insert(b.message);
  return out;
}

/// Serial baseline on fig2-with-bug: saturates all 16 branches and finds
/// the seeded assertion.
const CampaignResult& fig2_serial_baseline() {
  static const CampaignResult result =
      Campaign(fig2_target(true), shard_campaign_opts(0, 200)).run();
  return result;
}

TEST(DistributedCampaign, UninterruptedShardsMatchSerialCoverageAndBugs) {
  const CampaignResult& serial = fig2_serial_baseline();
  ASSERT_EQ(serial.covered_branches, compi::testing::kFig2Branches);
  ASSERT_FALSE(serial.bugs.empty());

  CoordinatorOptions co;
  co.budget = 240;
  co.lease_quota = 8;
  co.lease_ttl_ms = 2000;
  co.tick_ms = 10;
  Coordinator coord(fig2_target(true), co);
  ASSERT_TRUE(coord.start());

  std::vector<std::thread> shards;
  for (int i = 0; i < 3; ++i) {
    shards.emplace_back([&, i] {
      run_shard(fig2_target(true), coord.port(), i, 240, /*finish=*/true);
    });
  }
  for (std::thread& t : shards) t.join();
  EXPECT_TRUE(coord.done());
  EXPECT_GE(coord.completed(), co.budget);
  coord.stop();

  EXPECT_EQ(coord.covered_ids().size(), serial.covered_branches)
      << "the merged fleet must saturate the same reachable set";
  EXPECT_EQ(bug_messages(coord.bugs()), bug_messages(serial.bugs));
  EXPECT_EQ(coord.shards_joined(), 3u);
  EXPECT_EQ(coord.shards_lost(), 0u);
}

TEST(DistributedCampaign, TwoWorkerShardCompletesTheFleetBudget) {
  // A shard with --workers=2 leases each epoch's ordinals before dealing
  // them to both workers, and still converges with the fleet.
  const CampaignResult& serial = fig2_serial_baseline();

  CoordinatorOptions co;
  co.budget = 120;
  co.lease_quota = 8;
  co.lease_ttl_ms = 2000;
  co.tick_ms = 10;
  Coordinator coord(fig2_target(true), co);
  ASSERT_TRUE(coord.start());

  ShardLink link(link_opts(coord.port(), 0));
  (void)link.start();
  CampaignOptions opts = shard_campaign_opts(0, 120);
  opts.workers = 2;
  opts.work_source = &link;
  const CampaignResult result = Campaign(fig2_target(true), opts).run();
  link.finish();
  EXPECT_TRUE(coord.done());
  EXPECT_GE(coord.completed(), co.budget);
  coord.stop();

  ASSERT_EQ(result.iterations.size(), 120u);
  std::set<int> workers;
  for (const IterationRecord& rec : result.iterations) {
    workers.insert(rec.worker);
  }
  EXPECT_EQ(workers.size(), 2u);
  EXPECT_EQ(coord.covered_ids().size(), serial.covered_branches);
  EXPECT_EQ(bug_messages(coord.bugs()), bug_messages(serial.bugs));
}

TEST(DistributedCampaign, KillingOneShardMidCampaignStillConverges) {
  const CampaignResult& serial = fig2_serial_baseline();

  CoordinatorOptions co;
  co.budget = 240;
  co.lease_quota = 8;
  co.lease_ttl_ms = 500;  // reclaim the victim's leases quickly
  co.tick_ms = 10;
  Coordinator coord(fig2_target(true), co);
  ASSERT_TRUE(coord.start());

  std::vector<std::thread> shards;
  // Shard 0 is the victim: it runs a handful of iterations and then its
  // link is destroyed WITHOUT a Finished frame — from the coordinator's
  // side this is exactly a SIGKILL (connection drop, leases outstanding).
  shards.emplace_back([&] {
    run_shard(fig2_target(true), coord.port(), 0, 12, /*finish=*/false);
  });
  for (int i = 1; i < 3; ++i) {
    shards.emplace_back([&, i] {
      run_shard(fig2_target(true), coord.port(), i, 240, /*finish=*/true);
    });
  }
  for (std::thread& t : shards) t.join();
  EXPECT_TRUE(coord.done());
  EXPECT_TRUE(eventually([&] { return coord.shards_lost() >= 1; }))
      << "the dropped connection must be declared lost";
  coord.stop();

  EXPECT_EQ(coord.covered_ids().size(), serial.covered_branches)
      << "losing a shard may cost time, never coverage";
  EXPECT_EQ(bug_messages(coord.bugs()), bug_messages(serial.bugs));
}

TEST(DistributedCampaign, CoordinatorRestartMidCampaignConverges) {
  const CampaignResult& serial = fig2_serial_baseline();
  TempDir dir;

  CoordinatorOptions co;
  co.budget = 240;
  co.lease_quota = 8;
  co.lease_ttl_ms = 2000;
  co.tick_ms = 10;
  co.log_dir = dir.path.string();
  co.checkpoint_every_deltas = 1;

  auto first = std::make_unique<Coordinator>(fig2_target(true), co);
  ASSERT_TRUE(first->start());
  const int port = first->port();

  std::vector<std::thread> shards;
  for (int i = 0; i < 3; ++i) {
    shards.emplace_back([&, i] {
      run_shard(fig2_target(true), port, i, 240, /*finish=*/true);
    });
  }

  // Let real progress accumulate, then take the coordinator down and bring
  // a resumed one up on the same port.  The shard links ride it out with
  // their reconnect backoff and re-handshake (full resync Welcome).
  ASSERT_TRUE(eventually([&] { return first->completed() >= 20; }));
  first->stop();
  const std::int64_t at_restart = first->completed();
  first.reset();

  CoordinatorOptions resumed = co;
  resumed.port = port;
  resumed.resume = true;
  Coordinator second(fig2_target(true), resumed);
  ASSERT_TRUE(second.start());
  EXPECT_GE(second.completed(), at_restart)
      << "restored progress must not move backwards";

  for (std::thread& t : shards) t.join();
  EXPECT_TRUE(second.done());
  EXPECT_GE(second.completed(), co.budget);
  second.stop();

  EXPECT_EQ(second.covered_ids().size(), serial.covered_branches)
      << "a coordinator restart must not lose confirmed coverage";
  EXPECT_EQ(bug_messages(second.bugs()), bug_messages(serial.bugs));
}

TEST(DistributedCampaign, StandaloneDegradationThenRejoinReconciles) {
  // Reserve a loopback port with no listener behind it.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);
  ::close(probe);

  ShardLinkOptions so = link_opts(port, 0);
  so.standalone_after_failures = 2;
  so.reconnect_initial_ms = 10;
  so.reconnect_max_ms = 50;
  ShardLink link(so);
  EXPECT_FALSE(link.start()) << "nothing is listening yet";

  // The campaign must not block on the missing coordinator: after the
  // failure threshold the link degrades and the local budget governs.
  CampaignOptions opts = shard_campaign_opts(0, 15);
  opts.work_source = &link;
  const CampaignResult result = Campaign(fig2_target(true), opts).run();
  EXPECT_EQ(result.iterations.size(), 15u);
  EXPECT_TRUE(link.standalone());

  // The coordinator appears late, on the exact address the link retries.
  CoordinatorOptions co;
  co.port = port;
  co.budget = 100;
  co.tick_ms = 10;
  Coordinator coord(fig2_target(true), co);
  ASSERT_TRUE(coord.start());

  // Rejoin reconciliation: the link re-handshakes on its own and uploads
  // the full standalone state — nothing lost, nothing double-counted.
  EXPECT_TRUE(eventually([&] { return link.connected(); }));
  EXPECT_TRUE(eventually([&] { return coord.completed() == 15; }));
  EXPECT_EQ(coord.covered_ids().size(), result.covered_branches);
  EXPECT_EQ(bug_messages(coord.bugs()), bug_messages(result.bugs));
  link.finish();
  coord.stop();
}

TEST(DistributedCampaign, MiniImbChaosNeverLosesSerialCoverage) {
  // Superset discipline on an unsaturated target: the chaos run (2 shards,
  // one killed mid-campaign) must cover at least everything a serial
  // session with the same seed covers on a smaller budget.
  const TargetInfo target = targets::make_mini_imb_target(4);
  TempDir serial_dir;
  CampaignOptions serial = shard_campaign_opts(0, 120);
  serial.initial_nprocs = 2;
  serial.max_procs = 2;
  serial.dfs_phase_iterations = 60;
  serial.log_dir = serial_dir.path.string();
  const CampaignResult serial_result = Campaign(target, serial).run();

  CoordinatorOptions co;
  co.budget = 480;
  co.lease_quota = 16;
  co.lease_ttl_ms = 1000;
  co.tick_ms = 10;
  Coordinator coord(target, co);
  ASSERT_TRUE(coord.start());

  const auto run_imb_shard = [&](int idx, int iterations, bool finish) {
    ShardLink link(link_opts(coord.port(), idx));
    (void)link.start();
    CampaignOptions opts = shard_campaign_opts(idx, iterations);
    opts.initial_nprocs = 2;
    opts.max_procs = 2;
    opts.dfs_phase_iterations = 60;
    opts.work_source = &link;
    (void)Campaign(target, opts).run();
    if (finish) link.finish();
  };
  std::thread victim([&] { run_imb_shard(0, 20, /*finish=*/false); });
  std::thread survivor([&] { run_imb_shard(1, 480, /*finish=*/true); });
  victim.join();
  survivor.join();
  EXPECT_TRUE(coord.done());
  coord.stop();

  const std::vector<sym::BranchId> merged = coord.covered_ids();
  const std::set<sym::BranchId> merged_set(merged.begin(), merged.end());
  // Read the serial covered set from the session ledger.
  std::set<long> lost;
  {
    std::ifstream in(serial_dir.path / "ledger.csv");
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::stringstream ss(line);
      std::string field;
      long branch = -1;
      for (int idx = 0; idx <= 4 && std::getline(ss, field, ','); ++idx) {
        if (idx == 0) branch = std::stol(field);
        if (idx == 4 && field == "1" &&
            merged_set.count(static_cast<sym::BranchId>(branch)) == 0) {
          lost.insert(branch);
        }
      }
    }
  }
  EXPECT_GE(merged_set.size(), serial_result.covered_branches);
  EXPECT_TRUE(lost.empty())
      << lost.size() << " serial branches missing from the chaos run";
  EXPECT_TRUE(serial_result.bugs.empty());
  EXPECT_TRUE(coord.bugs().empty());
}

}  // namespace
}  // namespace compi

#else  // !COMPI_SERVE_POSIX

TEST(DistributedCampaign, SkippedWithoutPosixSockets) {
  GTEST_SKIP() << "serve layer compiled out";
}

#endif
