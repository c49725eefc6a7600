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
// job time on the run's virtual clock, not wall time.  Two --isolate runs
// write the same checkpoint too: no wall-clock reading changes the length
// of a sandbox frame.
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
#include "obs/journal.h"
#include "sandbox/supervisor.h"
#include "targets/targets.h"
#include "tests/compi/session_log_util.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::snapshot_text;

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
/// coverage_timeline.csv and the final snapshot, the newest of
/// session.log (its rows frames carry the timing columns).
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
  for (const char* file : {"bugs.txt", "ledger.csv", "coverage_timeline.csv"}) {
    EXPECT_TRUE(fs::exists(a / file)) << file;
    EXPECT_EQ(slurp(a / file), slurp(b / file)) << file;
  }
  const std::string snapshot = snapshot_text(a, 0);
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot, snapshot_text(b, 0)) << "the final snapshot";
}

TEST(Determinism, IsolatedRunsWriteByteIdenticalCheckpoints) {
  // The checkpoint's sandbox line sums the result-frame bytes of every
  // run, and each frame carries that run's measured wall time: only a
  // fixed-width encoding keeps the sum independent of the host's timing.
  // (summary.txt also reports total_seconds, so the checkpoint is the
  // whole-session file that can match byte for byte.)
  if (!sandbox::sandbox_supported()) GTEST_SKIP() << "no fork()";
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir first, second;
  const CampaignResult a =
      Campaign(target, susy_options(first.path, true)).run();
  const CampaignResult b =
      Campaign(target, susy_options(second.path, true)).run();
  EXPECT_GT(a.sandbox_harvest_bytes, 0u);
  EXPECT_EQ(a.sandbox_harvest_bytes, b.sandbox_harvest_bytes);
  expect_identical_files(first.path, second.path);
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

/// Runs `opts` twice, the second time next to a CPU hog, and expects
/// byte-identical sessions; returns the first run's result.
CampaignResult expect_twins_next_to_a_cpu_hog(const TargetInfo& target,
                                              CampaignOptions opts) {
  TempDir quiet, loaded;
  opts.log_dir = quiet.path.string();
  CampaignResult a = Campaign(target, opts).run();
  {
    CpuHog hog;
    opts.log_dir = loaded.path.string();
    (void)Campaign(target, opts).run();
  }
  expect_identical_files(quiet.path, loaded.path);
  return a;
}

TEST(Determinism, ImbFourWorkersAreByteIdenticalNextToACpuHog) {
  // Snapshots every 2048 ordinals leave full-length epochs (4 workers x
  // 256), so each worker runs long slices against a stale view.
  CampaignOptions opts = four_worker_options({}, 4000);
  opts.checkpoint_interval = 2048;
  (void)expect_twins_next_to_a_cpu_hog(targets::make_mini_imb_target(), opts);
}

TEST(Determinism, SusyFourWorkersAreByteIdenticalNextToACpuHog) {
  const CampaignResult a = expect_twins_next_to_a_cpu_hog(
      targets::make_mini_susy_target(), four_worker_options({}, 600));
  EXPECT_FALSE(a.bugs.empty());
}

TEST(Determinism, HplTwoWorkersAreByteIdenticalNextToACpuHog) {
  CampaignOptions opts = four_worker_options({}, 600);
  opts.workers = 2;
  (void)expect_twins_next_to_a_cpu_hog(targets::make_mini_hpl_target(100),
                                       opts);
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

/// Runs `opts` uninterrupted, then halted after `halt` ordinals and
/// resumed, and expects the same session.
void expect_halt_and_resume_match(const TargetInfo& target,
                                  CampaignOptions opts, int halt) {
  TempDir whole, resumed;
  opts.log_dir = whole.path.string();
  (void)Campaign(target, opts).run();

  opts.log_dir = resumed.path.string();
  opts.halt_after_iterations = halt;
  const CampaignResult partial = Campaign(target, opts).run();
  ASSERT_EQ(partial.iterations.size(), static_cast<std::size_t>(halt));
  ASSERT_FALSE(fs::exists(resumed.path / "summary.txt"));
  opts.halt_after_iterations = 0;
  opts.resume = true;
  const CampaignResult rest = Campaign(target, opts).run();
  EXPECT_TRUE(rest.resumed);
  expect_identical_files(whole.path, resumed.path);
}

TEST(Determinism, HaltAndResumeAtThreeWorkersMatchesAnUninterruptedRun) {
  // A halt lands on a barrier, where no ordinal is in flight: the resumed
  // campaign continues every worker's search line exactly.
  CampaignOptions opts = four_worker_options({}, 600);
  opts.workers = 3;
  expect_halt_and_resume_match(targets::make_mini_susy_target(), opts, 250);
}

TEST(Determinism, HplHaltAndResumeAtTwoWorkersMatchesAnUninterruptedRun) {
  CampaignOptions opts = four_worker_options({}, 600);
  opts.workers = 2;
  expect_halt_and_resume_match(targets::make_mini_hpl_target(100), opts, 250);
}

TEST(Determinism, GenerationalHaltAndResumeMatchesAnUninterruptedRun) {
  // The generational queue holds views of shared paths; its checkpoint
  // still writes each entry's constraint set, and a resume rebuilds a
  // store per entry that solves to the same candidates.
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir whole, resumed;
  CampaignOptions opts = four_worker_options(whole.path, 300);
  opts.workers = 1;
  opts.search = SearchKind::kGenerational;
  opts.checkpoint_interval = 10;
  (void)Campaign(target, opts).run();

  opts.log_dir = resumed.path.string();
  opts.halt_after_iterations = 37;
  const CampaignResult partial = Campaign(target, opts).run();
  ASSERT_EQ(partial.iterations.size(), 37u);
  opts.halt_after_iterations = 0;
  opts.resume = true;
  const CampaignResult rest = Campaign(target, opts).run();
  EXPECT_TRUE(rest.resumed);
  expect_identical_files(whole.path, resumed.path);
}

TEST(Determinism, HaltOffTheCheckpointGridResumesTheUninterruptedSession) {
  // Two workers, snapshots every 25, halted at 30: the halt lands on the
  // uninterrupted plan's next boundary (50) rather than cutting an epoch
  // of its own at 30, so the resumed campaign deals every later ordinal to
  // the same worker the uninterrupted one did.
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir whole, resumed;
  CampaignOptions opts = four_worker_options(whole.path, 300);
  opts.workers = 2;
  opts.checkpoint_interval = 25;
  (void)Campaign(target, opts).run();

  opts.log_dir = resumed.path.string();
  opts.halt_after_iterations = 30;
  const CampaignResult partial = Campaign(target, opts).run();
  ASSERT_EQ(partial.iterations.size(), 50u);
  ASSERT_FALSE(fs::exists(resumed.path / "summary.txt"));
  opts.halt_after_iterations = 0;
  opts.resume = true;
  const CampaignResult rest = Campaign(target, opts).run();
  EXPECT_TRUE(rest.resumed);
  expect_identical_files(whole.path, resumed.path);
}

TEST(Determinism, ResumeJournalsNoDiagnosisWhenTheVerdictHolds) {
  // A resumed campaign's stall diagnosis continues from the last verdict
  // its kept journal recorded, so the first resumed sample journals a
  // `diagnosis` event only if the verdict changed there — as in the
  // uninterrupted campaign, which journals verdict transitions only.
  const TargetInfo target = targets::make_mini_susy_target();
  TempDir dir;
  CampaignOptions opts;
  opts.seed = 1;
  opts.iterations = 60;
  opts.journal = true;
  opts.log_dir = dir.path.string();
  opts.halt_after_iterations = 30;
  const CampaignResult partial = Campaign(target, opts).run();
  ASSERT_EQ(partial.iterations.size(), 30u);
  opts.halt_after_iterations = 0;
  opts.resume = true;
  const CampaignResult rest = Campaign(target, opts).run();
  ASSERT_TRUE(rest.resumed);

  std::string verdict_at_halt;
  std::vector<std::string> resumed_events;
  for (const obs::ParsedEvent& e : obs::read_journal(dir.path / "journal.jsonl")) {
    if (e.type != "diagnosis") continue;
    const std::string kind = e.str("kind").value_or("?");
    if (e.iter() < 30) verdict_at_halt = kind;
    if (e.iter() == 30) resumed_events.push_back(kind);
  }
  ASSERT_FALSE(verdict_at_halt.empty()) << "the first sample journals one";
  for (const std::string& kind : resumed_events) {
    EXPECT_NE(kind, verdict_at_halt)
        << "a diagnosis event at the first resumed iteration repeats the "
           "verdict the journal already holds";
  }
}

}  // namespace
}  // namespace compi
