// Differential equivalence for the --isolate execution engine.
//
// The contract locking the engine down: the fork server is an execution
// MECHANISM, never a search change.  A campaign run with --isolate on must
// be row-for-row identical to the same campaign with it off (in-process) —
// same iterations.csv (timing columns excluded), same covered set, same
// bugs.txt — on the fig2 target, on the message-heavy mini-IMB suite,
// under four workers and across a resume that switches engines, and the
// checkpoint must carry the engine counters across a resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compi/driver.h"
#include "compi/session.h"
#include "sandbox/supervisor.h"
#include "targets/targets.h"
#include "tests/compi/fig2_target.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_forksrv_eq_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

/// iterations.csv with the named column indices blanked (timings are wall /
/// CPU clock readings and legitimately vary run to run).
std::vector<std::string> csv_rows_excluding(const fs::path& file,
                                            const std::set<int>& drop) {
  std::ifstream in(file);
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string field, rebuilt;
    int idx = 0;
    while (std::getline(ss, field, ',')) {
      rebuilt += drop.count(idx) ? std::string("_") : field;
      rebuilt += ',';
      ++idx;
    }
    rows.push_back(rebuilt);
  }
  return rows;
}

constexpr int kExecSecondsCol = 6;
constexpr int kSolveSecondsCol = 7;

std::string slurp(const fs::path& file) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Branch ids marked covered in a session's ledger.csv.
std::set<long> covered_set(const fs::path& ledger_csv) {
  std::ifstream in(ledger_csv);
  std::set<long> covered;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string field;
    long branch = -1;
    for (int idx = 0; idx <= 4 && std::getline(ss, field, ','); ++idx) {
      if (idx == 0) branch = std::stol(field);
      if (idx == 4 && field == "1") covered.insert(branch);
    }
  }
  return covered;
}

CampaignOptions isolated_opts(const fs::path& dir) {
  CampaignOptions opts;
  opts.seed = 11;
  opts.iterations = 120;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 30;
  opts.checkpoint_interval = 0;
  opts.isolate = true;
  opts.log_dir = dir.string();
  return opts;
}

void expect_identical_sessions(const fs::path& a, const fs::path& b) {
  const auto drop = std::set<int>{kExecSecondsCol, kSolveSecondsCol};
  const auto rows_a = csv_rows_excluding(a / "iterations.csv", drop);
  EXPECT_FALSE(rows_a.empty());
  EXPECT_EQ(rows_a, csv_rows_excluding(b / "iterations.csv", drop));
  EXPECT_EQ(covered_set(a / "ledger.csv"), covered_set(b / "ledger.csv"));
  EXPECT_EQ(slurp(a / "bugs.txt"), slurp(b / "bugs.txt"));
}

TEST(ForkServerEquivalence, OnMatchesOffOnFig2) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  TempDir in_proc_dir, isolated_dir;

  // The reference: a plain in-process serial session, no sandbox at all.
  CampaignOptions in_proc = isolated_opts(in_proc_dir.path);
  in_proc.isolate = false;
  const CampaignResult in_proc_result = Campaign(fig2_target(), in_proc).run();
  EXPECT_EQ(in_proc_result.sandbox_runs, 0u);
  EXPECT_EQ(in_proc_result.warm_spawns, 0u);

  CampaignOptions isolated = isolated_opts(isolated_dir.path);
  const CampaignResult isolated_result =
      Campaign(fig2_target(), isolated).run();
  EXPECT_GT(isolated_result.warm_spawns, 0u)
      << "the engine must actually be exercised, not silently degraded";
  EXPECT_EQ(isolated_result.fork_server_restarts, 0u);
  EXPECT_EQ(isolated_result.cold_forks, 0u);
  EXPECT_EQ(isolated_result.sandbox_runs, isolated_result.iterations.size())
      << "every iteration is one sandboxed run, warm or cold";

  EXPECT_EQ(in_proc_result.covered_branches, isolated_result.covered_branches);
  EXPECT_EQ(in_proc_result.bugs.size(), isolated_result.bugs.size());
  expect_identical_sessions(in_proc_dir.path, isolated_dir.path);
}

TEST(ForkServerEquivalence, OnMatchesOffOnMiniImb) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = targets::make_mini_imb_target(4);
  TempDir in_proc_dir, isolated_dir;

  CampaignOptions in_proc = isolated_opts(in_proc_dir.path);
  in_proc.seed = 3;
  in_proc.iterations = 60;
  in_proc.initial_nprocs = 2;
  in_proc.max_procs = 2;
  in_proc.isolate = false;
  const CampaignResult in_proc_result = Campaign(target, in_proc).run();

  CampaignOptions isolated = in_proc;
  isolated.log_dir = isolated_dir.path.string();
  isolated.isolate = true;
  const CampaignResult isolated_result = Campaign(target, isolated).run();
  EXPECT_GT(isolated_result.warm_spawns, 0u);

  EXPECT_EQ(in_proc_result.covered_branches, isolated_result.covered_branches);
  expect_identical_sessions(in_proc_dir.path, isolated_dir.path);
}

// Batch reset by hand: the first half of the session runs sandboxed in the
// fork server, a resume runs the rest in-process.  Switching engines at a
// checkpoint must leave the session bit-identical to a plain serial
// non-isolated one, and the resumed in-process tail adds no sandboxed runs.
TEST(ForkServerEquivalence, BatchResetMatchesPlainSerialNonIsolated) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  TempDir serial_dir, switched_dir;

  CampaignOptions serial = isolated_opts(serial_dir.path);
  serial.checkpoint_interval = 10;
  serial.isolate = false;
  const CampaignResult serial_result = Campaign(fig2_target(), serial).run();

  CampaignOptions switched = serial;
  switched.log_dir = switched_dir.path.string();
  std::size_t sandboxed_half = 0;
  {
    CampaignOptions first_half = switched;
    first_half.isolate = true;
    first_half.halt_after_iterations = 60;
    const CampaignResult partial = Campaign(fig2_target(), first_half).run();
    ASSERT_EQ(partial.iterations.size(), 60u);
    EXPECT_GT(partial.warm_spawns, 0u);
    sandboxed_half = partial.sandbox_runs;
    EXPECT_EQ(sandboxed_half, 60u);
  }
  switched.resume = true;
  const CampaignResult switched_result =
      Campaign(fig2_target(), switched).run();
  EXPECT_TRUE(switched_result.resumed);
  EXPECT_EQ(switched_result.iterations.size(), 120u);
  EXPECT_EQ(switched_result.sandbox_runs, sandboxed_half)
      << "the in-process tail must not be counted as sandboxed runs";

  EXPECT_EQ(serial_result.covered_branches, switched_result.covered_branches);
  EXPECT_EQ(serial_result.bugs.size(), switched_result.bugs.size());
  expect_identical_sessions(serial_dir.path, switched_dir.path);
}

// The tsan leg of CI runs this whole binary; this test is the one that
// drives four workers' fork servers concurrently.
TEST(ForkServerEquivalence, IsolateUnderFourWorkersMatchesInProcess) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  TempDir in_proc_dir, isolated_dir;

  CampaignOptions in_proc = isolated_opts(in_proc_dir.path);
  in_proc.workers = 4;
  in_proc.isolate = false;
  const CampaignResult in_proc_result = Campaign(fig2_target(), in_proc).run();

  CampaignOptions isolated = in_proc;
  isolated.log_dir = isolated_dir.path.string();
  isolated.isolate = true;
  const CampaignResult result = Campaign(fig2_target(), isolated).run();

  EXPECT_EQ(result.iterations.size(), 120u);
  EXPECT_EQ(result.sandbox_runs, 120u)
      << "each worker's iterations all run in its own fork server";
  EXPECT_EQ(result.warm_spawns + result.cold_forks, result.sandbox_runs);
  EXPECT_GT(result.covered_branches, 0u);
  EXPECT_EQ(in_proc_result.covered_branches, result.covered_branches);
  expect_identical_sessions(in_proc_dir.path, isolated_dir.path);
}

TEST(ForkServerEquivalence, CheckpointResumeCarriesEngineCounters) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  TempDir dir;
  CampaignOptions opts = isolated_opts(dir.path);
  opts.iterations = 60;
  opts.checkpoint_interval = 10;

  std::size_t partial_warm = 0;
  {
    CampaignOptions halted = opts;
    halted.halt_after_iterations = 30;
    const CampaignResult partial = Campaign(fig2_target(), halted).run();
    ASSERT_EQ(partial.iterations.size(), 30u);
    ASSERT_GT(partial.warm_spawns, 0u);
    partial_warm = partial.warm_spawns;
  }
  const auto snapshot = read_checkpoint(dir.path);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->warm_spawns, partial_warm)
      << "the checkpoint must persist the engine accounting";

  CampaignOptions resumed = opts;
  resumed.resume = true;
  const CampaignResult got = Campaign(fig2_target(), resumed).run();
  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(got.iterations.size(), 60u);
  EXPECT_GE(got.warm_spawns, partial_warm)
      << "restored counters plus the resumed tail's own warm spawns";
}

}  // namespace
}  // namespace compi
