// Artifact write-failure surfacing: every best-effort writer (status
// heartbeat, journal, checkpoint) must count its failures in
// compi_artifact_write_errors_total, log once per artifact kind, and keep
// the last complete snapshot intact instead of replacing it with a torn
// one.
#include "obs/artifacts.h"

#include <gtest/gtest.h>

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

  // A directory squatting on the temp path makes the next tmp open fail —
  // the writer must report it and leave the complete snapshot untouched
  // (chmod tricks don't work here: tests may run as root).
  fs::create_directories(writer.dir() / "checkpoint.txt.tmp");
  const std::int64_t before = obs::artifact_write_errors();
  ckpt::CampaignCheckpoint second;
  second.seed = 42;
  second.next_iteration = 20;
  second.history_rows = 20;
  writer.write_checkpoint(second);
  EXPECT_EQ(obs::artifact_write_errors(), before + 1);
  const auto kept = read_checkpoint(writer.dir());
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->next_iteration, 9);

  // The failed attempt cleans up its debris, so the next write lands.
  writer.write_checkpoint(second);
  EXPECT_EQ(read_checkpoint(writer.dir())->next_iteration, 20);
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
