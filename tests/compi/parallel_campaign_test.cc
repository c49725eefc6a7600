// Differential testing of the parallel campaign engine (--workers).
//
// The contracts under test, from options.h and DESIGN.md:
//   * workers=1 IS the serial campaign: same seed => bit-identical
//     iterations.csv / ledger.csv (timing columns excluded — wall clock is
//     the one permitted nondeterminism).
//   * the solver cache changes cost accounting (solver_nodes) but never
//     results: a cache-on serial session matches cache-off row for row.
//   * workers=4 reaches the SAME coverage set as serial, in some order —
//     parallel negation is a traversal-order change, not a search change.
//   * parallel bookkeeping (worker column, rows in ordinal order, cache
//     counters, metrics.prom) is consistent.
// Run-to-run byte identity of --workers sessions is determinism_test.cc's.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compi/driver.h"
#include "compi/session.h"
#include "compi/work_source.h"
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
           ("compi_parallel_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

CampaignOptions base_opts(const fs::path& dir) {
  CampaignOptions opts;
  opts.seed = 7;
  opts.iterations = 80;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 40;
  opts.checkpoint_interval = 0;
  opts.log_dir = dir.string();
  return opts;
}

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
constexpr int kSolverNodesCol = 9;

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

TEST(ParallelCampaign, WorkersOneMatchesSerialSessionExactly) {
  TempDir serial_dir, one_worker_dir;
  CampaignOptions serial = base_opts(serial_dir.path);
  const CampaignResult serial_result = Campaign(fig2_target(), serial).run();

  CampaignOptions one = base_opts(one_worker_dir.path);
  one.workers = 1;  // explicitly one worker: the serial campaign itself
  const CampaignResult one_result = Campaign(fig2_target(), one).run();

  EXPECT_EQ(serial_result.covered_branches, one_result.covered_branches);
  EXPECT_EQ(serial_result.restarts, one_result.restarts);
  EXPECT_EQ(one_result.workers_used, 1u);
  EXPECT_EQ(one_result.frontier_dedup_skips, 0u);
  EXPECT_EQ(one_result.stale_candidate_drops, 0u);

  const auto drop = std::set<int>{kExecSecondsCol, kSolveSecondsCol};
  EXPECT_EQ(csv_rows_excluding(serial_dir.path / "iterations.csv", drop),
            csv_rows_excluding(one_worker_dir.path / "iterations.csv", drop));
  EXPECT_EQ(slurp(serial_dir.path / "ledger.csv"),
            slurp(one_worker_dir.path / "ledger.csv"));
}

TEST(ParallelCampaign, SolverCacheDoesNotChangeSerialResults) {
  TempDir off_dir, on_dir;
  CampaignOptions off = base_opts(off_dir.path);
  const CampaignResult off_result = Campaign(fig2_target(), off).run();
  EXPECT_EQ(off_result.solver_cache_hits + off_result.solver_cache_misses, 0u);

  CampaignOptions on = base_opts(on_dir.path);
  on.solver_cache_entries = 4096;
  const CampaignResult on_result = Campaign(fig2_target(), on).run();

  // Identical rows except the cost column: hits report 0 searched nodes.
  const auto drop =
      std::set<int>{kExecSecondsCol, kSolveSecondsCol, kSolverNodesCol};
  EXPECT_EQ(csv_rows_excluding(off_dir.path / "iterations.csv", drop),
            csv_rows_excluding(on_dir.path / "iterations.csv", drop));
  EXPECT_EQ(slurp(off_dir.path / "ledger.csv"),
            slurp(on_dir.path / "ledger.csv"));
  EXPECT_EQ(off_result.covered_branches, on_result.covered_branches);
  EXPECT_GT(on_result.solver_cache_misses, 0u);
}

TEST(ParallelCampaign, FourWorkersLoseNoSerialCoverageOnImb) {
  // Order-independence of parallel search: with per-worker search
  // depth matched to the serial run (4 workers x 4x the iteration
  // budget — each DFS line advances only on its own worker's
  // iterations), the parallel campaign must reach every branch the
  // serial one saturates at (serial plateaus at this seed/budget; see
  // the fig2 test below for exact set EQUALITY on a fully saturable
  // target).  Workers explore independently-seeded lines, so the
  // parallel set is allowed to be a superset — a worker that sees the
  // others' finds only at epoch barriers may repeat work, never lose
  // coverage.  The iter cap and nprocs are kept small so that the
  // serial plateau set contains no branch gated on a DFS line deeper
  // than one worker's share of the parallel budget.
  const TargetInfo target = targets::make_mini_imb_target(4);
  TempDir serial_dir, parallel_dir;

  CampaignOptions serial = base_opts(serial_dir.path);
  serial.seed = 3;
  serial.iterations = 400;
  serial.initial_nprocs = 2;
  serial.max_procs = 2;
  serial.dfs_phase_iterations = 100;
  const CampaignResult serial_result = Campaign(target, serial).run();

  CampaignOptions par = serial;
  par.log_dir = parallel_dir.path.string();
  par.iterations = 1600;
  par.workers = 4;
  par.solver_cache_entries = 4096;
  const CampaignResult par_result = Campaign(target, par).run();

  EXPECT_EQ(par_result.workers_used, 4u);
  EXPECT_GE(par_result.covered_branches, serial_result.covered_branches);
  const std::set<long> serial_covered =
      covered_set(serial_dir.path / "ledger.csv");
  const std::set<long> par_covered =
      covered_set(parallel_dir.path / "ledger.csv");
  std::set<long> lost;
  std::set_difference(serial_covered.begin(), serial_covered.end(),
                      par_covered.begin(), par_covered.end(),
                      std::inserter(lost, lost.begin()));
  EXPECT_TRUE(lost.empty()) << lost.size() << " serial branches lost";
  EXPECT_TRUE(par_result.bugs.empty());
}

TEST(ParallelCampaign, FourWorkersReachSerialCoverageSetOnFig2) {
  // Exact order-independent set equality, on a target small enough that
  // both engines fully saturate its reachable set within the budget.
  TempDir serial_dir, parallel_dir;
  CampaignOptions serial = base_opts(serial_dir.path);
  serial.iterations = 200;
  const CampaignResult serial_result = Campaign(fig2_target(), serial).run();

  CampaignOptions par = base_opts(parallel_dir.path);
  par.iterations = 800;  // per-worker depth parity with the serial run
  par.workers = 4;
  par.solver_cache_entries = 4096;
  const CampaignResult par_result = Campaign(fig2_target(), par).run();

  EXPECT_EQ(serial_result.covered_branches, par_result.covered_branches);
  EXPECT_EQ(covered_set(serial_dir.path / "ledger.csv"),
            covered_set(parallel_dir.path / "ledger.csv"));
}

TEST(ParallelCampaign, ParallelBookkeepingIsConsistent) {
  TempDir dir;
  CampaignOptions opts = base_opts(dir.path);
  opts.workers = 3;
  opts.solver_cache_entries = 4096;
  opts.metrics = true;
  const CampaignResult result = Campaign(fig2_target(), opts).run();

  EXPECT_EQ(result.workers_used, 3u);
  ASSERT_EQ(result.iterations.size(), 80u);
  // Every ordinal exactly once and in order, each row stamped with the
  // worker its epoch dealt it to.
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    EXPECT_EQ(result.iterations[i].iteration, static_cast<int>(i));
    EXPECT_GE(result.iterations[i].worker, 0);
    EXPECT_LT(result.iterations[i].worker, 3);
  }
  // More than one worker must actually have executed something.
  std::set<int> workers_seen;
  for (const IterationRecord& r : result.iterations) {
    workers_seen.insert(r.worker);
  }
  EXPECT_GT(workers_seen.size(), 1u);
  EXPECT_GT(result.solver_cache_hits + result.solver_cache_misses, 0u);

  const std::string prom = slurp(dir.path / "metrics.prom");
  EXPECT_NE(prom.find("compi_solver_cache_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("compi_solver_cache_misses_total"), std::string::npos);
  // No claim set, hence no dedup or stale-drop accounting.
  EXPECT_EQ(prom.find("compi_frontier_dedup_skips_total"), std::string::npos);
  EXPECT_EQ(prom.find("compi_stale_candidate_drops_total"), std::string::npos);
  EXPECT_EQ(result.frontier_dedup_skips, 0u);
  EXPECT_EQ(result.stale_candidate_drops, 0u);
}

TEST(ParallelCampaign, ParallelCheckpointResumeCompletesTheBudget) {
  TempDir dir;
  CampaignOptions opts = base_opts(dir.path);
  opts.workers = 2;
  opts.checkpoint_interval = 5;
  opts.halt_after_iterations = 20;
  const CampaignResult partial = Campaign(fig2_target(), opts).run();
  EXPECT_GE(partial.iterations.size(), 20u);
  ASSERT_TRUE(fs::exists(dir.path / "checkpoint.txt"));

  CampaignOptions resume = base_opts(dir.path);
  resume.workers = 2;
  resume.checkpoint_interval = 5;
  resume.resume = true;
  const CampaignResult full = Campaign(fig2_target(), resume).run();
  EXPECT_TRUE(full.resumed);
  ASSERT_EQ(full.iterations.size(), 80u);
  for (std::size_t i = 0; i < full.iterations.size(); ++i) {
    EXPECT_EQ(full.iterations[i].iteration, static_cast<int>(i));
  }
}

TEST(ParallelCampaign, SerialResumeRejectsParallelSnapshot) {
  // A serial (--workers=1) resume of a parallel session must degrade to a
  // clean fresh start, never misread per-worker cursors.
  TempDir dir;
  CampaignOptions opts = base_opts(dir.path);
  opts.workers = 2;
  opts.checkpoint_interval = 5;
  const CampaignResult parallel = Campaign(fig2_target(), opts).run();
  ASSERT_TRUE(fs::exists(dir.path / "checkpoint.txt"));

  CampaignOptions resume = base_opts(dir.path);
  resume.resume = true;  // workers defaults to 1
  const CampaignResult fresh = Campaign(fig2_target(), resume).run();
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.iterations.size(), 80u);
  EXPECT_GT(fresh.covered_branches, 0u);
  (void)parallel;
}

/// Grants at most `quota` ordinals per acquire() until `budget` is spent,
/// recording what each call asked for.
struct LeaseCounter : WorkSource {
  int budget = 0;
  int quota = 0;
  std::vector<int> wanted;
  std::int64_t last_report = -1;
  int acquire(int n) override {
    wanted.push_back(n);
    const int granted = std::min({n, quota, budget});
    budget -= granted;
    return granted;
  }
  void report(const WorkDelta& d) override {
    last_report = d.iterations_completed;
  }
  std::vector<sym::BranchId> take_remote_coverage() override { return {}; }
  std::vector<std::uint64_t> take_remote_interleavings() override {
    return {};
  }
};

TEST(ParallelCampaign, WorkersLeaseWholeEpochsFromAWorkSource) {
  // The apply thread leases each epoch with one acquire() and shrinks it
  // to the grant, so two workers share every lease; a refusal ends the
  // campaign with the ordinals granted so far.
  TempDir dir;
  CampaignOptions opts = base_opts(dir.path);
  opts.workers = 2;
  opts.iterations = 40;
  LeaseCounter source;
  source.budget = 24;
  source.quota = 8;
  opts.work_source = &source;
  const CampaignResult result = Campaign(fig2_target(), opts).run();
  EXPECT_EQ(source.wanted, (std::vector<int>{40, 32, 24, 16}));
  ASSERT_EQ(result.iterations.size(), 24u);
  EXPECT_EQ(source.last_report, 24);
  for (std::size_t lease = 0; lease < 3; ++lease) {
    std::set<int> workers;
    for (std::size_t i = lease * 8; i < lease * 8 + 8; ++i) {
      EXPECT_EQ(result.iterations[i].iteration, static_cast<int>(i));
      workers.insert(result.iterations[i].worker);
    }
    EXPECT_EQ(workers.size(), 2u) << "lease " << lease;
  }
}

}  // namespace
}  // namespace compi
