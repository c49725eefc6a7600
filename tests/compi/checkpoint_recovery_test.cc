// Torn-write recovery: a truncated or corrupted newest snapshot in
// session.log (and a partial final iterations.csv row) must not strand the
// session — resume falls back to the last complete snapshot and cuts the
// CSV back to its commit point.  The tests named "...FallsBackToBak" check
// the fallback to the snapshot before the newest.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "compi/checkpoint.h"
#include "compi/driver.h"
#include "compi/session.h"
#include "tests/compi/fig2_target.h"
#include "tests/compi/session_log_util.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::edit_rows_frames;
using compi::testing::edit_snapshot;
using compi::testing::fig2_target;
using compi::testing::keep_last_two_snapshots;
using compi::testing::snapshot_text;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_recovery_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

CampaignOptions session_opts(const fs::path& dir) {
  CampaignOptions opts;
  opts.seed = 21;
  opts.iterations = 60;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 30;
  opts.checkpoint_interval = 5;
  opts.log_dir = dir.string();
  return opts;
}

/// Runs the campaign to `halt_after` iterations, leaving a session log
/// with several snapshots behind (interval 5).
void run_until_halt(const fs::path& dir, int halt_after) {
  CampaignOptions opts = session_opts(dir);
  opts.halt_after_iterations = halt_after;
  const CampaignResult partial = Campaign(fig2_target(), opts).run();
  ASSERT_EQ(partial.iterations.size(), static_cast<std::size_t>(halt_after));
  ASSERT_FALSE(snapshot_text(dir, 0).empty());
  ASSERT_FALSE(snapshot_text(dir, 1).empty())
      << "repeated snapshots must keep the previous one in the log";
}

CampaignResult resume_campaign(const fs::path& dir) {
  CampaignOptions opts = session_opts(dir);
  opts.resume = true;
  return Campaign(fig2_target(), opts).run();
}

std::optional<ckpt::CampaignCheckpoint> parse(const std::string& text) {
  std::istringstream in(text);
  return ckpt::CampaignCheckpoint::read(in);
}

TEST(CheckpointRecovery, EverySnapshotKeepsAReadableBak) {
  TempDir dir;
  run_until_halt(dir.path, 30);
  const auto head = parse(snapshot_text(dir.path, 0));
  const auto prev = parse(snapshot_text(dir.path, 1));
  ASSERT_TRUE(head.has_value());
  ASSERT_TRUE(prev.has_value());
  EXPECT_GE(head->next_iteration, prev->next_iteration);
}

TEST(CheckpointRecovery, TruncatedCheckpointFallsBackToBak) {
  TempDir dir;
  run_until_halt(dir.path, 30);
  // Simulate a torn write: the log is cut 60% into the head snapshot,
  // its last frame.
  const std::string head = snapshot_text(dir.path, 0);
  const std::size_t kept = head.size() * 6 / 10;
  ASSERT_FALSE(parse(head.substr(0, kept)).has_value())
      << "the torn head snapshot must not parse";
  const fs::path log = dir.path / "session.log";
  fs::resize_file(log, fs::file_size(log) - (head.size() - kept));
  EXPECT_NE(snapshot_text(dir.path, 0), head);
  const auto recovered = read_checkpoint(dir.path);
  ASSERT_TRUE(recovered.has_value())
      << "read_checkpoint must fall back to the previous snapshot";

  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(got.iterations.size(), 60u);
  // The resumed tail re-runs deterministically, so the final CSV is whole.
  std::ifstream csv(dir.path / "iterations.csv");
  std::string line;
  int rows = 0;
  while (std::getline(csv, line)) ++rows;
  EXPECT_EQ(rows, 61);  // header + 60 complete rows
}

TEST(CheckpointRecovery, CorruptedCheckpointBodyFallsBackToBak) {
  TempDir dir;
  run_until_halt(dir.path, 30);
  // Flip the version header into garbage instead of truncating.
  ASSERT_TRUE(edit_snapshot(dir.path, 0, [](std::string& text) {
    text = "compi-checkpoint 999\ngarbage that should never parse\n";
    return true;
  }));
  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(got.iterations.size(), 60u);
}

TEST(CheckpointRecovery, PartialFinalCsvRowIsRepairedOnResume) {
  TempDir dir;
  run_until_halt(dir.path, 30);
  {
    // A crash mid-append leaves a torn trailing row.
    std::ofstream csv(dir.path / "iterations.csv",
                      std::ios::binary | std::ios::app);
    csv << "31,4,0,seg";  // no newline, half the columns
  }
  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(got.iterations.size(), 60u);
  std::ifstream csv(dir.path / "iterations.csv");
  std::string line;
  int rows = 0;
  bool torn_row_survived = false;
  while (std::getline(csv, line)) {
    if (line.find("seg") != std::string::npos &&
        line.find("segfault") == std::string::npos) {
      torn_row_survived = true;
    }
    ++rows;
  }
  EXPECT_EQ(rows, 61);
  EXPECT_FALSE(torn_row_survived)
      << "resume must cut the CSV back to the snapshot's commit point";
}

/// `text` without the CSV row of `iteration`.
std::string without_row(const std::string& text, int iteration) {
  std::istringstream in(text);
  std::ostringstream kept;
  std::string line;
  const std::string prefix = std::to_string(iteration) + ",";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) kept << line << '\n';
  }
  return kept.str();
}

/// Deletes the iterations.csv row of `iteration`.
void delete_csv_row(const fs::path& dir, int iteration) {
  std::ifstream in(dir / "iterations.csv");
  std::stringstream text;
  text << in.rdbuf();
  in.close();
  std::ofstream(dir / "iterations.csv", std::ios::trunc)
      << without_row(text.str(), iteration);
}

/// Deletes the row of `iteration` from iterations.csv and from the log's
/// rows frames: the row is gone from every copy of the history.
void delete_row(const fs::path& dir, int iteration) {
  delete_csv_row(dir, iteration);
  edit_rows_frames(dir, [iteration](std::string& rows) {
    rows = without_row(rows, iteration);
  });
}

/// Every ordinal of the budget exactly once, in order: no short history.
void expect_full_history(const CampaignResult& got) {
  ASSERT_EQ(got.iterations.size(), 60u);
  for (std::size_t i = 0; i < got.iterations.size(); ++i) {
    EXPECT_EQ(got.iterations[i].iteration, static_cast<int>(i));
  }
}

TEST(CheckpointRecovery, MissingCsvRowFallsBackToBak) {
  // Halting at 32 leaves the newest snapshot at 32 and the one before it
  // at the periodic snapshot of 30.  A row the newer snapshot spans but
  // the older one does not is missing: the history of the newest snapshot
  // cannot be rebuilt, so resume continues from the one before instead.
  TempDir dir;
  run_until_halt(dir.path, 32);
  delete_row(dir.path, 31);
  const auto snapshot = read_checkpoint(dir.path);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->next_iteration, 30);
  EXPECT_EQ(snapshot->iterations.size(), 30u);
  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_TRUE(got.resumed);
  expect_full_history(got);
}

TEST(CheckpointRecovery, MissingCsvRowBelowBothSnapshotsStartsFresh) {
  // A compacted log holds two snapshots, and the history below the older
  // one is iterations.csv's own.  A row there is missing: neither snapshot
  // can be rebuilt, and the campaign starts over rather than resuming a
  // short history.
  TempDir dir;
  run_until_halt(dir.path, 32);
  keep_last_two_snapshots(dir.path);
  delete_csv_row(dir.path, 10);
  EXPECT_FALSE(read_checkpoint(dir.path).has_value());
  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_FALSE(got.resumed);
  expect_full_history(got);
}

TEST(CheckpointRecovery, DuplicateCsvRowIsRejected) {
  // Exactly one row per ordinal: a second row for an ordinal the snapshot
  // spans makes its history ambiguous.  Rows past the snapshot's commit
  // point are the tail a resume cuts off, so the duplicate goes inside it:
  // iteration 1's row renumbered 0, at the same length, in the CSV and in
  // the log's rows frame that holds it.
  TempDir dir;
  run_until_halt(dir.path, 30);
  const auto renumber_row1 = [](std::string& bytes) {
    const std::size_t row1 = bytes.find("\n1,");
    if (row1 != std::string::npos) bytes[row1 + 1] = '0';
    return row1 != std::string::npos;
  };
  {
    std::ifstream in(dir.path / "iterations.csv", std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    std::string bytes = text.str();
    in.close();
    ASSERT_TRUE(renumber_row1(bytes));
    std::ofstream(dir.path / "iterations.csv",
                  std::ios::binary | std::ios::trunc)
        << bytes;
  }
  edit_rows_frames(dir.path, [&](std::string& rows) { renumber_row1(rows); });
  EXPECT_FALSE(read_checkpoint(dir.path).has_value());
}

TEST(CheckpointRecovery, BothSnapshotsUnreadableFallsBackToFreshRun) {
  // A compacted log holds two snapshots; both are cut in half.
  TempDir dir;
  run_until_halt(dir.path, 30);
  keep_last_two_snapshots(dir.path);
  for (std::size_t back : {0, 1}) {
    ASSERT_TRUE(edit_snapshot(dir.path, back, [](std::string& text) {
      text.resize(text.size() / 2);
      return true;
    }));
  }
  EXPECT_FALSE(read_checkpoint(dir.path).has_value());
  const CampaignResult got = resume_campaign(dir.path);
  // No snapshot to continue from: a fresh campaign, run to the full budget.
  EXPECT_FALSE(got.resumed);
  EXPECT_EQ(got.iterations.size(), 60u);
}

/// Rewrites `text` line by line: `edit` gets the tokens of each line after
/// the first one starting with `after`, until it changes one (returns
/// true).  False when it changed none.
bool edit_tokens_after(
    std::string& text, const std::string& after,
    const std::function<bool(std::vector<std::string>&)>& edit) {
  std::istringstream in(text);
  std::ostringstream out;
  bool armed = false, done = false;
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    std::vector<std::string> t;
    for (std::string w; words >> w;) t.push_back(w);
    if (armed && !done && edit(t)) {
      done = true;
      line = t[0];
      for (std::size_t i = 1; i < t.size(); ++i) line += " " + t[i];
    }
    armed |= line.rfind(after, 0) == 0;
    out << line << '\n';
  }
  if (done) text = out.str();
  return done;
}

/// edit_tokens_after on the text of the `back`-th newest snapshot of
/// `dir`'s log.
bool edit_snapshot_tokens(
    const fs::path& dir, std::size_t back, const std::string& after,
    const std::function<bool(std::vector<std::string>&)>& edit) {
  return edit_snapshot(dir, back, [&](std::string& text) {
    return edit_tokens_after(text, after, edit);
  });
}

/// Names variable -1 in the first path entry of the cursor's strategy
/// state (`site taken op constant nterms var coeff ...`) of the `back`-th
/// newest snapshot.
void poison_strategy_path(const fs::path& dir, std::size_t back) {
  ASSERT_TRUE(edit_snapshot_tokens(
      dir, back, "cursor_state_lines", [](auto& t) {
        if (t.size() < 7 || t.size() != 5 + 2 * std::stoul(t[4])) {
          return false;
        }
        t[5] = "-1";
        return true;
      }))
      << "no path entry to corrupt in snapshot " << back;
}

TEST(CheckpointRecovery, StrategyStateNamingVarMinusOneFallsBackToBak) {
  // A path naming a variable outside the cursor's registry would index the
  // path's occurrence lists (and later the registry) out of bounds: the
  // snapshot is unusable, and resume continues from the one before.
  TempDir dir;
  run_until_halt(dir.path, 30);
  poison_strategy_path(dir.path, 0);
  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_TRUE(got.resumed);
  expect_full_history(got);
}

TEST(CheckpointRecovery, StrategyStateNamingVarMinusOneInBothStartsFresh) {
  // Both snapshots of a compacted log are poisoned.
  TempDir dir;
  run_until_halt(dir.path, 30);
  keep_last_two_snapshots(dir.path);
  poison_strategy_path(dir.path, 0);
  poison_strategy_path(dir.path, 1);
  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_FALSE(got.resumed);
  expect_full_history(got);
}

TEST(CheckpointRecovery, FrameDepthPastItsPathFallsBackToBak) {
  // A BoundedDFS frame is `lo idx`, then its path: an idx past the path's
  // last entry would flip an entry that does not exist.
  TempDir dir;
  run_until_halt(dir.path, 30);
  const auto past_its_path = [](std::vector<std::string>& t) {
    if (t.size() != 3 || !std::isdigit(static_cast<unsigned char>(t[0][0]))) {
      return false;  // not a frame's `lo idx size` line
    }
    t[1] = "1000";
    return true;
  };
  ASSERT_TRUE(edit_snapshot_tokens(dir.path, 0, "frames", past_its_path));
  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_TRUE(got.resumed);
  expect_full_history(got);
}

TEST(CheckpointRecovery, CfgFlagCountNotMatchingItsPathFallsBackToBak) {
  // The CFG strategy keeps one tried flag per path entry; a corrupt count
  // must neither size an allocation nor leave the flags shorter than the
  // path they index.
  TempDir dir;
  CampaignOptions opts = session_opts(dir.path);
  opts.search = SearchKind::kCfg;
  opts.halt_after_iterations = 30;
  ASSERT_EQ(Campaign(fig2_target(), opts).run().iterations.size(), 30u);
  const auto huge_count = [](std::vector<std::string>& t) {
    if (t.empty() || t[0] != "tried") return false;
    t[1] = "4611686018427387904";
    return true;
  };
  ASSERT_TRUE(edit_snapshot_tokens(dir.path, 0, "attempts", huge_count));
  opts.halt_after_iterations = 0;
  opts.resume = true;
  const CampaignResult got = Campaign(fig2_target(), opts).run();
  EXPECT_TRUE(got.resumed);
  expect_full_history(got);
}

/// iterations.csv rows with the exec/solve timing columns (6 and 7) cut.
std::vector<std::string> rows_without_timings(const fs::path& csv) {
  std::ifstream in(csv);
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string field, row;
    for (int col = 0; std::getline(fields, field, ','); ++col) {
      if (col != 6 && col != 7) row += field + ',';
    }
    rows.push_back(row);
  }
  return rows;
}

TEST(CheckpointRecovery, PlanInputOutsideTheRegistryFallsBackToBak) {
  // The cursor line is `cursor nprocs focus restart depth failures replans
  // bounded bound N var value ...`: the planned test's inputs get ids far
  // past the registry.  Resuming from it would run another test
  // than the uninterrupted campaign; the snapshot before it continues it
  // exactly.
  TempDir dir, whole;
  run_until_halt(dir.path, 30);
  if (!edit_snapshot_tokens(dir.path, 0, "cursors", [](auto& t) {
        if (t.size() < 11 || t[0] != "cursor" || t[9] == "0") return false;
        for (std::size_t i = 10; i < t.size(); i += 2) {
          t[i] = std::to_string(2000000000 + i);
        }
        return true;
      })) {
    GTEST_SKIP() << "the halted plan has no inputs";
  }
  const CampaignResult got = resume_campaign(dir.path);
  EXPECT_TRUE(got.resumed);
  expect_full_history(got);
  (void)Campaign(fig2_target(), session_opts(whole.path)).run();
  EXPECT_EQ(rows_without_timings(dir.path / "iterations.csv"),
            rows_without_timings(whole.path / "iterations.csv"));
  std::ifstream a(dir.path / "ledger.csv"), b(whole.path / "ledger.csv");
  std::stringstream ta, tb;
  ta << a.rdbuf();
  tb << b.rdbuf();
  EXPECT_EQ(ta.str(), tb.str()) << "ledger.csv";
  EXPECT_EQ(snapshot_text(dir.path, 0), snapshot_text(whole.path, 0))
      << "the final snapshot";
}

}  // namespace
}  // namespace compi
