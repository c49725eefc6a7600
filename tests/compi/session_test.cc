#include "compi/session.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "compi/fixed_run.h"
#include "obs/journal.h"
#include "targets/targets.h"
#include "tests/compi/fig2_target.h"
#include "tests/compi/session_log_util.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;
using compi::testing::snapshot_text;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_session_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CampaignOptions session_opts(const fs::path& dir, int iterations = 30) {
  CampaignOptions opts;
  opts.seed = 9;
  opts.iterations = iterations;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 10;
  opts.log_dir = dir.string();
  return opts;
}

TEST(Session, WritesIterationLogsAndSummary) {
  TempDir tmp;
  Campaign campaign(fig2_target(), session_opts(tmp.path));
  const CampaignResult result = campaign.run();

  EXPECT_TRUE(fs::exists(tmp.path / "iterations.csv"));
  EXPECT_TRUE(fs::exists(tmp.path / "summary.txt"));
  EXPECT_TRUE(fs::exists(tmp.path / "bugs.txt"));
  // Rank logs are retained for the last iterations (and bug iterations):
  // the final iteration's directory holds every rank's log.
  const fs::path last =
      tmp.path / ("iter_" + std::to_string(result.iterations.back().iteration));
  EXPECT_TRUE(fs::exists(last / "rank_0.log"));
  EXPECT_TRUE(fs::exists(last / "rank_3.log"));

  // iterations.csv: header + one row per iteration.
  const std::string csv = slurp(tmp.path / "iterations.csv");
  const auto rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows, static_cast<std::ptrdiff_t>(result.iterations.size()) + 1);

  const std::string summary = slurp(tmp.path / "summary.txt");
  EXPECT_NE(summary.find("covered_branches " +
                         std::to_string(result.covered_branches)),
            std::string::npos);
}

TEST(Session, FocusLogHeavyOthersLight) {
  TempDir tmp;
  Campaign campaign(fig2_target(), session_opts(tmp.path, 5));
  (void)campaign.run();
  const std::string focus = slurp(tmp.path / "iter_0" / "rank_0.log");
  const std::string other = slurp(tmp.path / "iter_0" / "rank_1.log");
  EXPECT_NE(focus.find("mode heavy"), std::string::npos);
  EXPECT_NE(other.find("mode light"), std::string::npos);
  EXPECT_GT(focus.size(), other.size());
}

TEST(Session, BugsFileNamesInputs) {
  TempDir tmp;
  CampaignOptions opts = session_opts(tmp.path, 200);
  Campaign campaign(fig2_target(/*with_bug=*/true), opts);
  const CampaignResult result = campaign.run();
  ASSERT_FALSE(result.bugs.empty());
  EXPECT_EQ(result.bugs.front().named_inputs.at("y"), 77);
  const std::string bugs = slurp(tmp.path / "bugs.txt");
  EXPECT_NE(bugs.find("y=77"), std::string::npos)
      << "error-inducing inputs must be replayable by name";
}

TEST(Session, BugsFileRoundTripsAndReplays) {
  // End-to-end replay: hunt bugs in mini-SUSY with a session, read the
  // bugs back from disk, replay each one with run_fixed, and get the same
  // failure kind — the "log error-inducing inputs for further analysis"
  // workflow of paper SV.
  TempDir tmp;
  const TargetInfo target = targets::make_mini_susy_target();
  CampaignOptions opts;
  opts.seed = 42;
  opts.iterations = 250;
  opts.dfs_phase_iterations = 50;
  opts.log_dir = tmp.path.string();
  const CampaignResult live = Campaign(target, opts).run();
  ASSERT_GE(live.bugs.size(), 3u);

  const std::vector<LoggedBug> logged = read_bugs(tmp.path / "bugs.txt");
  ASSERT_EQ(logged.size(), live.bugs.size());
  for (const LoggedBug& bug : logged) {
    std::map<std::string, std::int64_t> inputs;
    for (const auto& [k, v] : bug.inputs) {
      if (k.find('#') == std::string::npos) inputs[k] = v;  // regular only
    }
    const auto replay = run_fixed(target, inputs, {.nprocs = bug.nprocs,
                                                   .focus = bug.focus});
    EXPECT_EQ(replay.job_outcome(), bug.outcome) << bug.message;
  }
}

TEST(Session, SummaryRoundTrips) {
  TempDir tmp;
  Campaign campaign(fig2_target(), session_opts(tmp.path, 20));
  const CampaignResult result = campaign.run();
  const auto summary = read_summary(tmp.path / "summary.txt");
  EXPECT_EQ(summary.at("iterations"),
            std::to_string(result.iterations.size()));
  EXPECT_EQ(summary.at("covered_branches"),
            std::to_string(result.covered_branches));
  EXPECT_EQ(summary.at("bugs"), std::to_string(result.bugs.size()));
}

TEST(Session, BugsFileRoundTripsMultiLineMessagesAndFlaky) {
  // Hand-built result: a flaky bug with an embedded newline in its message
  // and a bug with no inputs at all must both survive the disk round-trip.
  TempDir tmp;
  CampaignResult result;
  BugRecord noisy;
  noisy.first_iteration = 3;
  noisy.occurrences = 2;
  noisy.outcome = rt::Outcome::kSegfault;
  noisy.message = "line one\nline two\twith tab";
  noisy.inputs[solver::Var{0}] = 7;
  noisy.named_inputs["x"] = 7;
  noisy.nprocs = 4;
  noisy.focus = 1;
  noisy.flaky = true;
  result.bugs.push_back(noisy);

  BugRecord bare;  // e.g. a hang before any input was read
  bare.first_iteration = 9;
  bare.occurrences = 1;
  bare.outcome = rt::Outcome::kTimeout;
  bare.message = "deadline exceeded";
  bare.nprocs = 2;
  result.bugs.push_back(bare);

  SessionWriter(tmp.path).write_summary(result);
  const std::vector<LoggedBug> logged = read_bugs(tmp.path / "bugs.txt");
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_EQ(logged[0].outcome, rt::Outcome::kSegfault);
  EXPECT_EQ(logged[0].message, noisy.message);
  EXPECT_TRUE(logged[0].flaky);
  EXPECT_EQ(logged[0].first_iteration, 3);
  EXPECT_EQ(logged[0].occurrences, 2);
  EXPECT_EQ(logged[0].nprocs, 4);
  EXPECT_EQ(logged[0].focus, 1);
  EXPECT_EQ(logged[1].outcome, rt::Outcome::kTimeout);
  EXPECT_FALSE(logged[1].flaky);
  EXPECT_TRUE(logged[1].inputs.empty());
}

TEST(Session, SummaryReportsRobustnessCounters) {
  TempDir tmp;
  CampaignResult result;
  result.transient_retries = 5;
  result.focus_replans = 2;
  result.resumed = true;
  SessionWriter(tmp.path).write_summary(result);
  const auto summary = read_summary(tmp.path / "summary.txt");
  EXPECT_EQ(summary.at("transient_retries"), "5");
  EXPECT_EQ(summary.at("focus_replans"), "2");
  EXPECT_EQ(summary.at("resumed"), "1");
}

TEST(Session, KeepRankLogsLimit) {
  // K = 2 keeps the last two iterations handed over, written at summary
  // time, plus any iteration written explicitly (a bug's first iteration).
  TempDir tmp;
  SessionWriter writer(tmp.path, /*keep_rank_logs=*/2);
  const auto one_rank = [] {
    minimpi::RunResult run;
    run.ranks.resize(1);
    run.ranks[0].log.covered = rt::CoverageBitmap(4);
    return run;
  };
  writer.write_iteration(0, one_rank());
  for (int i = 0; i < 4; ++i) writer.retain_iteration(i, one_rank());
  EXPECT_TRUE(fs::exists(tmp.path / "iter_0" / "rank_0.log"));
  EXPECT_FALSE(fs::exists(tmp.path / "iter_3"))
      << "the window is written at campaign end, not per iteration";
  writer.write_summary(CampaignResult{});
  EXPECT_TRUE(fs::exists(tmp.path / "iter_0" / "rank_0.log"));
  EXPECT_FALSE(fs::exists(tmp.path / "iter_1"));
  EXPECT_TRUE(fs::exists(tmp.path / "iter_2" / "rank_0.log"));
  EXPECT_TRUE(fs::exists(tmp.path / "iter_3" / "rank_0.log"));
}

TEST(Session, KeepRankLogsAllWritesEveryIterationAtOnce) {
  TempDir tmp;
  SessionWriter writer(tmp.path, /*keep_rank_logs=*/-1);
  for (int i = 0; i < 3; ++i) {
    minimpi::RunResult run;
    run.ranks.resize(2);
    writer.retain_iteration(i, std::move(run));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(fs::exists(tmp.path / ("iter_" + std::to_string(i)) /
                           "rank_1.log"))
        << i;
  }
}

/// The iter_<n> directories a session holds.
std::set<int> iteration_dirs(const fs::path& dir) {
  std::set<int> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_directory() && name.rfind("iter_", 0) == 0) {
      out.insert(std::stoi(name.substr(5)));
    }
  }
  return out;
}

TEST(Session, RetainsBugIterationsPlusTheLastK) {
  TempDir tmp;
  CampaignOptions opts = session_opts(tmp.path, 200);
  opts.keep_rank_logs = 5;
  const CampaignResult result =
      Campaign(fig2_target(/*with_bug=*/true), opts).run();
  ASSERT_FALSE(result.bugs.empty());

  std::set<int> want;
  for (const BugRecord& bug : result.bugs) want.insert(bug.first_iteration);
  for (int i = opts.iterations - opts.keep_rank_logs; i < opts.iterations;
       ++i) {
    want.insert(i);
  }
  EXPECT_EQ(iteration_dirs(tmp.path), want);
  for (const int i : want) {
    EXPECT_TRUE(fs::exists(tmp.path / ("iter_" + std::to_string(i)) /
                           "rank_0.log"))
        << i;
  }
}

TEST(Session, KeepRankLogsZeroKeepsNoneEvenForBugs) {
  TempDir tmp;
  CampaignOptions opts = session_opts(tmp.path, 200);
  opts.keep_rank_logs = 0;
  const CampaignResult result =
      Campaign(fig2_target(/*with_bug=*/true), opts).run();
  ASSERT_FALSE(result.bugs.empty());
  EXPECT_TRUE(iteration_dirs(tmp.path).empty());
}

TEST(Session, CheckpointSizeIsFlatInIterationCount) {
  // The snapshot holds campaign state, not history: ten times the
  // iterations must not make it meaningfully larger.  The search stack in
  // the cursor's strategy blob is left out of the measure: it is bounded
  // by the depth bound, not by the iteration count, and its depth at the
  // moment of the snapshot swings the size by a few hundred bytes.
  const auto snapshot_bytes = [](int iterations) {
    TempDir tmp;
    CampaignOptions opts = session_opts(tmp.path, iterations);
    (void)Campaign(fig2_target(/*with_bug=*/true), opts).run();
    std::istringstream in(snapshot_text(tmp.path, 0));
    std::optional<ckpt::CampaignCheckpoint> c =
        ckpt::CampaignCheckpoint::read(in);
    EXPECT_TRUE(c.has_value());
    if (!c) return std::size_t{0};
    for (ckpt::WorkerCursor& w : c->worker_cursors) w.strategy_state.clear();
    std::ostringstream text;
    c->write(text);
    return text.str().size();
  };
  const std::size_t small = snapshot_bytes(100);
  const std::size_t large = snapshot_bytes(1000);
  ASSERT_GT(small, 0u);
  EXPECT_LE(static_cast<double>(large), 1.1 * static_cast<double>(small))
      << small << " bytes at 100 iterations, " << large << " at 1000";
}

TEST(Session, KeepRankLogsZeroCreatesNoIterationDirs) {
  TempDir tmp;
  SessionWriter writer(tmp.path, /*keep_rank_logs=*/0);
  minimpi::RunResult run;
  run.ranks.resize(2);
  writer.write_iteration(0, run);
  writer.write_iteration(1, run);
  EXPECT_FALSE(fs::exists(tmp.path / "iter_0"));
  EXPECT_FALSE(fs::exists(tmp.path / "iter_1"));
}

TEST(Session, EmptyRunWritesNoIterationDir) {
  TempDir tmp;
  SessionWriter writer(tmp.path);  // keep everything
  minimpi::RunResult run;          // ...but there are no ranks to keep
  writer.write_iteration(0, run);
  EXPECT_FALSE(fs::exists(tmp.path / "iter_0"));
}

TEST(Session, CampaignWritesParsableCheckpoint) {
  TempDir tmp;
  CampaignOptions opts = session_opts(tmp.path, 20);
  opts.checkpoint_interval = 5;
  const CampaignResult result = Campaign(fig2_target(), opts).run();

  const auto checkpoint = read_checkpoint(tmp.path);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->seed, opts.seed);
  // The end-of-campaign snapshot points one past the final iteration.
  EXPECT_EQ(checkpoint->next_iteration, static_cast<int>(opts.iterations));
  EXPECT_EQ(checkpoint->iterations.size(), result.iterations.size());
  EXPECT_EQ(checkpoint->covered.size(), result.covered_branches);
}

TEST(Session, ResumeCutsTheJournalAtTheSnapshotAndDropsTornTails) {
  TempDir tmp;
  const fs::path file = tmp.path / "journal.jsonl";
  {
    obs::Journal journal;
    SessionWriter writer(tmp.path);
    writer.begin_iterations({}, &journal);
    for (int i = 0; i < 6; ++i) {
      if (i == 3) {
        // The snapshot commits iterations 0..2: their rows and events.
        ckpt::CampaignCheckpoint c;
        c.next_iteration = 3;
        c.history_rows = 3;
        writer.write_checkpoint(c);
      }
      IterationRecord rec;
      rec.iteration = i;
      writer.append_iteration(rec);
      obs::JournalEvent(journal, "iteration", i).num("nprocs", 4);
      obs::JournalEvent(journal, "solve", i).boolean("sat", true);
    }
    journal.close();
  }
  // Simulate the killed writer's torn tail.
  {
    std::ofstream out(file, std::ios::app);
    out << "{\"type\":\"iteration\",\"iter\":6,\"npro";
  }
  const auto snapshot = read_checkpoint(tmp.path);
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_EQ(snapshot->iterations.size(), 3u);
  obs::Journal journal;
  SessionWriter writer(tmp.path);
  writer.resume_iterations(snapshot->streams, snapshot->iterations, &journal);
  obs::JournalEvent(journal, "iteration", 3).num("nprocs", 4);
  journal.close();

  // Events 0..2 survive; the uncommitted tail (3..5) and the torn line go.
  const std::vector<obs::ParsedEvent> events = obs::read_journal(file);
  ASSERT_EQ(events.size(), 7u);  // (iteration+solve) x 3 retained + 1 new
  int iteration_events = 0;
  for (const obs::ParsedEvent& ev : events) {
    EXPECT_LE(ev.iter(), 3);
    if (ev.type == "iteration") ++iteration_events;
  }
  EXPECT_EQ(iteration_events, 4);
  const std::string text = slurp(file);
  EXPECT_EQ(text.find("\"iter\":4"), std::string::npos);
  EXPECT_EQ(text.find("\"iter\":6"), std::string::npos)
      << "torn tail retained";
}

TEST(Session, ResumeOpensAFreshJournalWhenTheFileIsMissing) {
  TempDir tmp;
  obs::Journal journal;
  SessionWriter writer(tmp.path);
  writer.resume_iterations(ckpt::StreamLengths{0, 120}, {}, &journal);
  obs::JournalEvent(journal, "iteration", 10);
  journal.close();
  EXPECT_EQ(obs::read_journal(tmp.path / "journal.jsonl").size(), 1u);
}

/// The snapshot frames, then the rows frames, of `dir`'s session log.
std::pair<std::size_t, std::size_t> frame_counts(const fs::path& dir) {
  std::size_t snapshots = 0, rows = 0;
  for (const SessionLogFrame& f : read_session_log(dir)) {
    ++(f.kind == SessionLogFrame::Kind::kSnapshot ? snapshots : rows);
  }
  return {snapshots, rows};
}

TEST(Session, EachSnapshotIsOneRowsFrameAndOneSnapshotFrame) {
  // 20 iterations at interval 5: snapshots at 5, 10, 15 and 20, plus the
  // final one.  Each is a rows frame followed by its snapshot frame, and
  // no other snapshot file is written.
  TempDir tmp;
  CampaignOptions opts = session_opts(tmp.path, 20);
  opts.checkpoint_interval = 5;
  (void)Campaign(fig2_target(), opts).run();
  const std::vector<SessionLogFrame> frames = read_session_log(tmp.path);
  ASSERT_EQ(frames.size(), 10u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].kind, i % 2 == 0 ? SessionLogFrame::Kind::kRows
                                         : SessionLogFrame::Kind::kSnapshot)
        << i;
  }
  EXPECT_EQ(frame_counts(tmp.path), std::make_pair(std::size_t{5},
                                                   std::size_t{5}));
  // The rows frames hold iterations.csv, in order and whole.
  std::string rows;
  for (const SessionLogFrame& f : frames) {
    if (f.kind == SessionLogFrame::Kind::kRows) {
      EXPECT_EQ(f.at, rows.size());
      rows += f.body;
    }
  }
  EXPECT_EQ(rows, slurp(tmp.path / "iterations.csv"));
  for (const auto& e : fs::directory_iterator(tmp.path)) {
    EXPECT_NE(e.path().filename().string().rfind("checkpoint", 0), 0u)
        << e.path();
  }
}

TEST(Session, SnapshotsOffWriteNoRowsIntoTheLog) {
  // Without periodic snapshots the writer keeps no rows for the log: a
  // halt's snapshot commits the CSV it synced, with an empty rows frame.
  TempDir tmp;
  CampaignOptions opts = session_opts(tmp.path, 20);
  opts.checkpoint_interval = 0;
  opts.halt_after_iterations = 12;
  (void)Campaign(fig2_target(), opts).run();
  const std::vector<SessionLogFrame> frames = read_session_log(tmp.path);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].body.empty());
  const std::uint64_t csv = fs::file_size(tmp.path / "iterations.csv");
  EXPECT_EQ(frames[0].at, csv);
  EXPECT_EQ(frames[1].at, csv);
  const auto snapshot = read_checkpoint(tmp.path);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->iterations.size(), 12u);
}

TEST(Session, CompactionKeepsTwoSnapshotsAndTheRowsBetween) {
  TempDir tmp;
  SessionWriter writer(tmp.path);
  writer.begin_iterations({});
  const fs::path log = tmp.path / "session.log";
  bool compacted = false;
  for (int i = 0; i < 400; ++i) {
    IterationRecord rec;
    rec.iteration = i;
    writer.append_iteration(rec);
    ckpt::CampaignCheckpoint c;
    c.next_iteration = i + 1;
    c.history_rows = static_cast<std::size_t>(i) + 1;
    writer.write_checkpoint(c);
    const std::vector<SessionLogFrame> frames = read_session_log(tmp.path);
    ASSERT_GE(frames.size(), 2u);
    // The log stays within the compaction factor times its newest
    // snapshot frame.
    EXPECT_LE(fs::file_size(log),
              SessionWriter::kCompactFactor *
                  (kLogFrameHeader + frames.back().body.size()))
        << i;
    if (frames.front().kind != SessionLogFrame::Kind::kSnapshot) continue;
    if (!compacted) {
      // Just compacted: the newest two snapshots and the rows between.
      compacted = true;
      ASSERT_EQ(frames.size(), 3u);
      EXPECT_EQ(frames[1].kind, SessionLogFrame::Kind::kRows);
      EXPECT_EQ(frames[2].kind, SessionLogFrame::Kind::kSnapshot);
      EXPECT_EQ(frames[1].at, frames[0].at);
      EXPECT_EQ(frames[2].at, frames[1].at + frames[1].body.size());
      // The CSV below the older snapshot left the log: the file has it.
      EXPECT_GE(fs::file_size(tmp.path / "iterations.csv"), frames[0].at);
    }
    const auto snapshot = read_checkpoint(tmp.path);
    ASSERT_TRUE(snapshot.has_value()) << i;
    ASSERT_EQ(snapshot->iterations.size(), static_cast<std::size_t>(i) + 1);
    EXPECT_EQ(snapshot->iterations.back().iteration, i);
  }
  EXPECT_TRUE(compacted);
}

/// iterations.csv without its timing columns (6 and 7).
std::string rows_without_timings(const fs::path& csv) {
  std::istringstream in(slurp(csv));
  std::string out;
  for (std::string line; std::getline(in, line);) {
    std::istringstream cells(line);
    std::string cell;
    for (int col = 0; std::getline(cells, cell, ','); ++col) {
      out += col == 6 || col == 7 ? std::string("_") : cell;
      out += ',';
    }
    out += '\n';
  }
  return out;
}

TEST(Session, CompactedLogResumesToTheSameSession) {
  // A snapshot every iteration compacts the log within a few dozen; a
  // halt past that and a resume must write the uninterrupted session.
  const auto opts = [](const fs::path& dir) {
    CampaignOptions o = session_opts(dir, 160);
    o.checkpoint_interval = 1;
    return o;
  };
  TempDir full, halted;
  (void)Campaign(fig2_target(), opts(full.path)).run();
  CampaignOptions halt = opts(halted.path);
  halt.halt_after_iterations = 130;
  (void)Campaign(fig2_target(), halt).run();
  const std::vector<SessionLogFrame> frames = read_session_log(halted.path);
  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.front().kind, SessionLogFrame::Kind::kSnapshot)
      << "the log was never compacted";
  ASSERT_GT(frames.front().at, 0u);

  CampaignOptions resume = opts(halted.path);
  resume.resume = true;
  const CampaignResult got = Campaign(fig2_target(), resume).run();
  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(rows_without_timings(halted.path / "iterations.csv"),
            rows_without_timings(full.path / "iterations.csv"));
  for (const char* file : {"bugs.txt", "ledger.csv", "coverage_timeline.csv"}) {
    EXPECT_EQ(slurp(halted.path / file), slurp(full.path / file)) << file;
  }
  EXPECT_EQ(snapshot_text(halted.path, 0), snapshot_text(full.path, 0));
}

}  // namespace
}  // namespace compi
