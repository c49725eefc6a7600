// A campaign's session depends only on its seed and options.
//
// SUSY with its bugs is the hard case: a quarter of its iterations fault,
// and a faulting rank unwinds its peers mid-conversation, so the partial
// logs the search learns from depend on where each peer was when the job
// aborted.  With every rank a fiber under one FIFO scheduler, that point is
// a function of the program alone, so two runs with the same seed — and an
// in-process run and a fork-server run — write byte-identical sessions
// (iterations.csv without its two timing columns, bugs.txt, ledger.csv).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
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

}  // namespace
}  // namespace compi
