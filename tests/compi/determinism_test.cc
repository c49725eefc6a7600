// A campaign's session depends only on its seed and options.
//
// SUSY with its bugs is the hard case: a quarter of its iterations fault,
// and a faulting rank unwinds its peers mid-conversation, so the partial
// logs the search learns from depend on where each peer was when the job
// aborted.  With every rank a fiber under one FIFO scheduler, that point is
// a function of the program alone, so two runs with the same seed — and an
// in-process run and a fork-server run — write byte-identical sessions
// (iterations.csv without its two timing columns, bugs.txt, ledger.csv).
//
// --workers=N keeps that: each epoch deals its ordinals to the workers by
// a deterministic rule, they run against the campaign as of the epoch's
// start, and one thread applies their results in ordinal order, so thread
// timing — a CPU hog next to one run of a pair included — cannot reach the
// session.  A halt at a barrier plus --resume is byte-identical to the
// uninterrupted campaign.  Chaos drops and delays keep that too: a delay is
// job time on the run's virtual clock, not wall time.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compi/driver.h"
#include "sandbox/supervisor.h"
#include "targets/targets.h"

namespace compi {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("compi_determinism_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::string slurp(const fs::path& file) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// iterations.csv rows with exec_seconds and solve_seconds (columns 6 and
/// 7, wall and CPU clock readings) blanked.
std::vector<std::string> rows_without_timings(const fs::path& csv) {
  std::ifstream in(csv);
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string field, row;
    for (int col = 0; std::getline(ss, field, ','); ++col) {
      row += (col == 6 || col == 7) ? std::string("_") : field;
      row += ',';
    }
    rows.push_back(row);
  }
  return rows;
}

CampaignOptions susy_options(const fs::path& dir, bool isolate) {
  CampaignOptions opts;
  opts.seed = 1;
  opts.iterations = 600;
  opts.isolate = isolate;
  opts.log_dir = dir.string();
  return opts;
}

void expect_identical_sessions(const fs::path& a, const fs::path& b) {
  const std::vector<std::string> rows = rows_without_timings(a / "iterations.csv");
  ASSERT_EQ(rows.size(), 601u);
  EXPECT_EQ(rows, rows_without_timings(b / "iterations.csv"));
  EXPECT_EQ(slurp(a / "bugs.txt"), slurp(b / "bugs.txt"));
  EXPECT_EQ(slurp(a / "ledger.csv"), slurp(b / "ledger.csv"));
}

TEST(Determinism, SusyInProcessRunsAreByteIdentical) {
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir first, second;
  const CampaignResult a = Campaign(target, susy_options(first.path, false)).run();
  const CampaignResult b = Campaign(target, susy_options(second.path, false)).run();
  EXPECT_EQ(a.bugs.size(), 4u) << "SUSY's four bugs, faulting ranks included";
  expect_identical_sessions(first.path, second.path);
}

TEST(Determinism, SusyForkServerRunMatchesInProcess) {
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir inproc, isolated;
  (void)Campaign(target, susy_options(inproc.path, false)).run();
  (void)Campaign(target, susy_options(isolated.path, true)).run();
  expect_identical_sessions(inproc.path, isolated.path);
}

/// Every session file the campaign's results live in, byte for byte:
/// iterations.csv without its timing columns, bugs.txt, ledger.csv,
/// coverage_timeline.csv and the final checkpoint.txt.
void expect_identical_files(const fs::path& a, const fs::path& b) {
  const std::vector<std::string> rows =
      rows_without_timings(a / "iterations.csv");
  const std::vector<std::string> other =
      rows_without_timings(b / "iterations.csv");
  EXPECT_GT(rows.size(), 1u);
  ASSERT_EQ(rows.size(), other.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i], other[i]) << "first differing row " << i;
  }
  for (const char* file : {"bugs.txt", "ledger.csv", "coverage_timeline.csv",
                           "checkpoint.txt"}) {
    EXPECT_TRUE(fs::exists(a / file)) << file;
    EXPECT_EQ(slurp(a / file), slurp(b / file)) << file;
  }
}

/// Busy threads, one per core, for as long as the hog lives.
class CpuHog {
 public:
  CpuHog() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        volatile std::uint64_t x = 0;
        while (!done_.load(std::memory_order_relaxed)) x = x + 1;
      });
    }
  }
  ~CpuHog() {
    done_.store(true);
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::vector<std::thread> threads_;
};

CampaignOptions four_worker_options(const fs::path& dir, int iterations) {
  CampaignOptions opts;
  opts.seed = 1;
  opts.iterations = iterations;
  opts.workers = 4;
  opts.log_dir = dir.string();
  return opts;
}

TEST(Determinism, ImbFourWorkersAreByteIdenticalNextToACpuHog) {
  // Snapshots every 2048 ordinals leave full-length epochs (4 workers x
  // 256), so each worker runs long slices against a stale view.
  const TargetInfo target = targets::make_mini_imb_target();
  TempDir quiet, loaded;
  CampaignOptions opts = four_worker_options(quiet.path, 4000);
  opts.checkpoint_interval = 2048;
  (void)Campaign(target, opts).run();
  {
    CpuHog hog;
    opts.log_dir = loaded.path.string();
    (void)Campaign(target, opts).run();
  }
  expect_identical_files(quiet.path, loaded.path);
}

TEST(Determinism, SusyFourWorkersAreByteIdenticalNextToACpuHog) {
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir quiet, loaded;
  const CampaignResult a =
      Campaign(target, four_worker_options(quiet.path, 600)).run();
  {
    CpuHog hog;
    (void)Campaign(target, four_worker_options(loaded.path, 600)).run();
  }
  EXPECT_FALSE(a.bugs.empty());
  expect_identical_files(quiet.path, loaded.path);
}

TEST(Determinism, SusyUnderDropsAndDelaysIsByteIdenticalNextToACpuHog) {
  // Chaos delays are job time on each run's virtual clock, so whether a
  // delayed run reaches its deadline cannot depend on how busy the host is.
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir quiet, loaded;
  CampaignOptions opts = susy_options(quiet.path, false);
  opts.chaos.seed = 5;
  opts.chaos.drop_rate = 0.05;
  opts.chaos.delay_rate = 0.3;
  opts.chaos.delay = std::chrono::milliseconds(20);
  opts.test_timeout = std::chrono::milliseconds(50);
  const CampaignResult a = Campaign(target, opts).run();
  {
    CpuHog hog;
    opts.log_dir = loaded.path.string();
    (void)Campaign(target, opts).run();
  }
  const auto timeouts = std::count_if(
      a.iterations.begin(), a.iterations.end(), [](const IterationRecord& r) {
        return r.outcome == rt::Outcome::kTimeout;
      });
  EXPECT_GT(timeouts, 0) << "the plan must push some runs past the deadline";
  expect_identical_files(quiet.path, loaded.path);
}

TEST(Determinism, SolverCacheTwoWorkersAreByteIdentical) {
  // Each worker owns its cache, so hits — and the solver_nodes column they
  // zero — depend only on the worker's own queries.
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir first, second;
  CampaignOptions opts = four_worker_options(first.path, 600);
  opts.workers = 2;
  opts.solver_cache_entries = 4096;
  const CampaignResult a = Campaign(target, opts).run();
  opts.log_dir = second.path.string();
  const CampaignResult b = Campaign(target, opts).run();
  EXPECT_GT(a.solver_cache_hits, 0u);
  EXPECT_EQ(a.solver_cache_hits, b.solver_cache_hits);
  expect_identical_files(first.path, second.path);
}

TEST(Determinism, HaltAndResumeAtThreeWorkersMatchesAnUninterruptedRun) {
  // A halt lands on a barrier, where no ordinal is in flight: the resumed
  // campaign continues every worker's search line exactly.
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir whole, resumed;
  CampaignOptions opts = four_worker_options(whole.path, 600);
  opts.workers = 3;
  (void)Campaign(target, opts).run();

  opts.log_dir = resumed.path.string();
  opts.halt_after_iterations = 250;
  const CampaignResult partial = Campaign(target, opts).run();
  ASSERT_EQ(partial.iterations.size(), 250u);
  ASSERT_FALSE(fs::exists(resumed.path / "summary.txt"));
  opts.halt_after_iterations = 0;
  opts.resume = true;
  const CampaignResult rest = Campaign(target, opts).run();
  EXPECT_TRUE(rest.resumed);
  expect_identical_files(whole.path, resumed.path);
}

}  // namespace
}  // namespace compi
