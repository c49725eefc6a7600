// Artifact write-failure surfacing: every best-effort writer (status
// heartbeat, journal, checkpoint) must count its failures in
// compi_artifact_write_errors_total, log once per artifact kind, and keep
// the last complete snapshot intact instead of replacing it with a torn
// one.
#include "obs/artifacts.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "compi/checkpoint.h"
#include "compi/session.h"
#include "obs/journal.h"
#include "obs/status.h"

namespace compi {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("compi_artifacts_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ArtifactErrorsTest, StatusWriteToMissingDirectoryIsCounted) {
  TempDir tmp;
  const std::int64_t before = obs::artifact_write_errors();
  const std::string bad = (tmp.path / "no_such_dir" / "status.json").string();
  EXPECT_FALSE(obs::write_status_file(bad, "{\"iteration\":1}\n"));
  EXPECT_EQ(obs::artifact_write_errors(), before + 1);

  // The happy path stays silent: a writable target adds nothing.
  const std::string good = (tmp.path / "status.json").string();
  EXPECT_TRUE(obs::write_status_file(good, "{\"iteration\":2}\n"));
  EXPECT_EQ(obs::artifact_write_errors(), before + 1);
  EXPECT_EQ(slurp(good), "{\"iteration\":2}\n");
}

TEST(ArtifactErrorsTest, JournalOpenFailureIsCounted) {
  TempDir tmp;
  const std::int64_t before = obs::artifact_write_errors();
  obs::Journal journal;
  EXPECT_FALSE(journal.open(tmp.path / "no_such_dir" / "journal.jsonl"));
  EXPECT_EQ(obs::artifact_write_errors(), before + 1);
  EXPECT_TRUE(journal.open(tmp.path / "journal.jsonl"));
}

TEST(ArtifactErrorsTest, FailedCheckpointWriteKeepsTheLastGoodSnapshot) {
  TempDir tmp;
  SessionWriter writer(tmp.path / "sess");
  // Each snapshot commits the iterations.csv rows before its resume point,
  // which are the rows written so far.
  std::vector<IterationRecord> rows(20);
  for (int i = 0; i < 20; ++i) rows[static_cast<std::size_t>(i)].iteration = i;
  writer.begin_iterations({rows.begin(), rows.begin() + 9});

  ckpt::CampaignCheckpoint first;
  first.seed = 42;
  first.next_iteration = 9;
  first.history_rows = 9;
  writer.write_checkpoint(first);
  ASSERT_TRUE(read_checkpoint(writer.dir()).has_value());
  for (std::size_t i = 9; i < rows.size(); ++i) {
    writer.append_iteration(rows[i]);
  }

  // A file-size limit a few bytes past the log's length makes the next
  // append stop part way, as a full disk would — the writer must report
  // it and leave the complete snapshot readable (chmod tricks don't work
  // here: tests may run as root).
  const fs::path log = writer.dir() / "session.log";
  const std::uintmax_t log_bytes = fs::file_size(log);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = log_bytes + 8;
  const auto handler = std::signal(SIGXFSZ, SIG_IGN);
  const std::int64_t before = obs::artifact_write_errors();
  ckpt::CampaignCheckpoint second;
  second.seed = 42;
  second.next_iteration = 20;
  second.history_rows = 20;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tight), 0);
  writer.write_checkpoint(second);
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, handler);
  EXPECT_EQ(obs::artifact_write_errors(), before + 1);
  EXPECT_EQ(fs::file_size(log), log_bytes) << "the torn record stayed";
  const auto kept = read_checkpoint(writer.dir());
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->next_iteration, 9);

  // The failed attempt cleans up its debris, so the next write lands.
  writer.write_checkpoint(second);
  EXPECT_EQ(read_checkpoint(writer.dir())->next_iteration, 20);
}

TEST(ArtifactErrorsTest, HealedCsvHoldsEachRowOnce) {
  TempDir tmp;
  constexpr int kRows = 1500;
  std::vector<IterationRecord> rows(kRows);
  for (int i = 0; i < kRows; ++i) {
    rows[static_cast<std::size_t>(i)].iteration = i;
  }
  {
    SessionWriter writer(tmp.path / "sess");
    writer.begin_iterations({});
    // Enough rows to fill the CSV buffer once: its write stops part way at
    // the file-size limit, so rows are lost until write_summary heals.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit tight = saved;
    tight.rlim_cur = 100;
    const auto handler = std::signal(SIGXFSZ, SIG_IGN);
    const std::int64_t before = obs::artifact_write_errors();
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tight), 0);
    for (int i = 0; i < 1000; ++i) {
      writer.append_iteration(rows[static_cast<std::size_t>(i)]);
    }
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, handler);
    ASSERT_EQ(obs::artifact_write_errors(), before + 1);
    for (int i = 1000; i < kRows; ++i) {
      writer.append_iteration(rows[static_cast<std::size_t>(i)]);
    }

    CampaignResult result;
    result.iterations = rows;
    writer.write_summary(result);
    ckpt::CampaignCheckpoint final_snapshot;
    final_snapshot.seed = 42;
    final_snapshot.next_iteration = kRows;
    final_snapshot.history_rows = kRows;
    final_snapshot.finished = true;
    writer.write_checkpoint(final_snapshot, /*sync=*/false);
  }
  // The writer's close flushes nothing twice.
  const std::vector<IterationRecord> read =
      read_iterations(tmp.path / "sess" / "iterations.csv");
  ASSERT_EQ(read.size(), rows.size());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_EQ(read[static_cast<std::size_t>(i)].iteration, i);
  }
  // The final snapshot's rows frame lines up with the healed file.
  const auto kept = read_checkpoint(tmp.path / "sess");
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->next_iteration, kRows);
}

TEST(ArtifactErrorsTest, LogsOncePerArtifactKindButCountsEveryFailure) {
  const std::int64_t before = obs::artifact_write_errors();
  ::testing::internal::CaptureStderr();
  obs::note_artifact_write_error("probe-kind", "/tmp/one");
  obs::note_artifact_write_error("probe-kind", "/tmp/two");
  obs::note_artifact_write_error("probe-kind", "/tmp/three");
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_occurrences(err, "failed to write probe-kind artifact"), 1u);
  EXPECT_NE(err.find("compi_artifact_write_errors_total"), std::string::npos);
  EXPECT_EQ(obs::artifact_write_errors(), before + 3);
}

}  // namespace
}  // namespace compi
