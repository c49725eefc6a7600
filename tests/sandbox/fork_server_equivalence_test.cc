// Differential equivalence for the fork-server execution engine.
//
// The contract locking the engine down: the fork server is an execution
// MECHANISM, never a search change.  A campaign run with --fork-server=on
// must be row-for-row identical to the same campaign with the engine off —
// same iterations.csv (timing columns excluded), same covered set, same
// bugs.txt — on both the fig2 target and the message-heavy mini-IMB
// suite.  The --batch-reset fast path must likewise be bit-identical to a
// plain non-isolated serial session, and the checkpoint must carry the
// engine counters across a resume.
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
  TempDir off_dir, on_dir;

  CampaignOptions off = isolated_opts(off_dir.path);
  off.fork_server = false;
  const CampaignResult off_result = Campaign(fig2_target(), off).run();
  EXPECT_EQ(off_result.warm_spawns, 0u);
  EXPECT_EQ(off_result.cold_forks, 0u);

  CampaignOptions on = isolated_opts(on_dir.path);
  on.fork_server = true;
  const CampaignResult on_result = Campaign(fig2_target(), on).run();
  EXPECT_GT(on_result.warm_spawns, 0u)
      << "the engine must actually be exercised, not silently degraded";
  EXPECT_EQ(on_result.fork_server_restarts, 0u);

  EXPECT_EQ(off_result.covered_branches, on_result.covered_branches);
  EXPECT_EQ(off_result.bugs.size(), on_result.bugs.size());
  EXPECT_EQ(off_result.sandbox_runs, on_result.sandbox_runs)
      << "warm spawns are still sandboxed runs; accounting must not drift";
  expect_identical_sessions(off_dir.path, on_dir.path);
}

TEST(ForkServerEquivalence, OnMatchesOffOnMiniImb) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = targets::make_mini_imb_target(4);
  TempDir off_dir, on_dir;

  CampaignOptions off = isolated_opts(off_dir.path);
  off.seed = 3;
  off.iterations = 60;
  off.initial_nprocs = 2;
  off.max_procs = 2;
  off.fork_server = false;
  const CampaignResult off_result = Campaign(target, off).run();

  CampaignOptions on = off;
  on.log_dir = on_dir.path.string();
  on.fork_server = true;
  const CampaignResult on_result = Campaign(target, on).run();
  EXPECT_GT(on_result.warm_spawns, 0u);

  EXPECT_EQ(off_result.covered_branches, on_result.covered_branches);
  expect_identical_sessions(off_dir.path, on_dir.path);
}

TEST(ForkServerEquivalence, BatchResetMatchesPlainSerialNonIsolated) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  TempDir serial_dir, batch_dir;

  // The reference: a plain in-process serial session, no sandbox at all.
  CampaignOptions serial = isolated_opts(serial_dir.path);
  serial.isolate = false;
  const CampaignResult serial_result = Campaign(fig2_target(), serial).run();

  // Batch reset: sandboxed until the warmup streak, in-process afterwards.
  // The results must be bit-identical either way — the sandbox and the
  // batch path are both execution mechanisms over the same search.
  CampaignOptions batch = isolated_opts(batch_dir.path);
  batch.batch_reset = true;
  batch.batch_warmup = 3;
  const CampaignResult batch_result = Campaign(fig2_target(), batch).run();
  EXPECT_GT(batch_result.batch_runs, 0u)
      << "a crash-free target must earn the in-process fast path";
  EXPECT_LT(batch_result.sandbox_runs, batch_result.iterations.size())
      << "batch runs must not be double-counted as sandboxed runs";

  EXPECT_EQ(serial_result.covered_branches, batch_result.covered_branches);
  EXPECT_EQ(serial_result.bugs.size(), batch_result.bugs.size());
  expect_identical_sessions(serial_dir.path, batch_dir.path);
}

// The tsan leg of CI runs this whole binary; this test is the one that
// drives the batched in-process fast path concurrently from four workers.
TEST(ForkServerEquivalence, BatchResetUnderFourWorkersStaysCoherent) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  TempDir dir;
  CampaignOptions opts = isolated_opts(dir.path);
  opts.workers = 4;
  opts.iterations = 120;
  opts.batch_reset = true;
  opts.batch_warmup = 2;
  const CampaignResult result = Campaign(fig2_target(), opts).run();

  EXPECT_EQ(result.iterations.size(), 120u);
  EXPECT_GT(result.batch_runs, 0u)
      << "every worker's gate should open on a crash-free target";
  EXPECT_GT(result.covered_branches, 0u);
  EXPECT_EQ(result.batch_runs + result.sandbox_runs, 120u)
      << "each iteration is exactly one batch run or one sandboxed run";
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
  EXPECT_EQ(snapshot->batch_runs, 0u);

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
