// Checkpoint/resume: serialization round-trips plus the headline property —
// a campaign killed after iteration k and resumed from its checkpoint
// finishes with the same coverage, bug list, and iteration tail as an
// uninterrupted run.
#include "compi/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "compi/session.h"
#include "tests/compi/fig2_target.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_ckpt_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

TEST(Ckpt, EscapeRoundTripsControlCharacters) {
  const std::string nasty = "line1\nline2\r\\tail\\n";
  EXPECT_EQ(ckpt::unescape(ckpt::escape(nasty)), nasty);
  EXPECT_EQ(ckpt::escape(nasty).find('\n'), std::string::npos);
}

TEST(Ckpt, FormatDoubleIsShortestRoundTrip) {
  for (double v : {0.0, 1.5, 0.1, 3.14159265358979, -2.75e-9, 1e300}) {
    EXPECT_EQ(std::stod(ckpt::format_double(v)), v);
  }
}

TEST(Ckpt, PredicateRoundTrips) {
  solver::LinearExpr expr(7);
  expr.add_term(0, 3);
  expr.add_term(5, -2);
  const solver::Predicate p{expr, solver::CompareOp::kLe};
  std::stringstream ss;
  ckpt::write_predicate(ss, p);
  solver::Predicate back;
  ASSERT_TRUE(ckpt::read_predicate(ss, back));
  EXPECT_EQ(back, p);
}

TEST(Ckpt, PathRoundTrips) {
  sym::Path path;
  path.append(3, true, {solver::LinearExpr(1, 2, -5), solver::CompareOp::kGt});
  path.append(9, false, {solver::LinearExpr(42), solver::CompareOp::kEq});
  std::stringstream ss;
  ckpt::write_path(ss, path);
  sym::Path back;
  ASSERT_TRUE(ckpt::read_path(ss, back));
  ASSERT_EQ(back.size(), path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    EXPECT_EQ(back[i].site, path[i].site);
    EXPECT_EQ(back[i].taken, path[i].taken);
    EXPECT_EQ(back[i].constraint, path[i].constraint);
  }
}

ckpt::CampaignCheckpoint sample_checkpoint() {
  ckpt::CampaignCheckpoint c;
  c.seed = 77;
  c.next_iteration = 12;
  ckpt::WorkerCursor cur;
  cur.plan.inputs = {{0, 5}, {1, -3}};
  cur.plan.nprocs = 6;
  cur.plan.focus = 2;
  cur.next_is_restart = true;
  cur.pending_depth = 4;
  cur.failures = 3;
  cur.consecutive_replans = 1;
  cur.bounded_phase = true;
  cur.depth_bound = 37;
  cur.strategy_name = "BoundedDFS";
  cur.strategy_state = "stats 4 1\nframes 0\n";
  rt::VarMeta meta;
  meta.key = "x";
  meta.kind = rt::VarKind::kRegular;
  meta.domain = {0, 500};
  meta.cap = 500;
  cur.registry.push_back(meta);
  rt::VarMeta rank_meta;
  rank_meta.key = "rc:0";
  rank_meta.kind = rt::VarKind::kRankLocal;
  rank_meta.domain = {0, 15};
  rank_meta.comm_index = 0;
  cur.registry.push_back(rank_meta);
  c.worker_cursors.push_back(cur);
  c.restarts = 2;
  c.max_constraint_set = 9;
  c.depth_bound_used = 20;
  c.transient_retries = 5;
  c.focus_replans = 1;
  c.sandbox_runs = 40;
  c.sandbox_signal_kills = 3;
  c.sandbox_hang_kills = 2;
  c.sandbox_harvest_bytes = 123456;
  // The history lives in iterations.csv: the snapshot spans its first row.
  // That is short of next_iteration, which only the end-of-campaign
  // snapshot of an early-stopped campaign may be.
  c.history_rows = 1;
  c.finished = true;
  IterationRecord rec;
  rec.iteration = 0;
  rec.nprocs = 6;
  rec.focus = 2;
  rec.outcome = rt::Outcome::kSegfault;
  rec.constraint_set_size = 7;
  rec.covered_branches = 13;
  rec.exec_seconds = 0.0321;
  rec.solve_seconds = 1.25e-4;
  rec.restart = true;
  c.iterations.push_back(rec);
  BugRecord bug;
  bug.first_iteration = 3;
  bug.occurrences = 4;
  bug.outcome = rt::Outcome::kAssert;
  bug.message = "multi\nline assertion: a[5] out of bounds";
  bug.inputs = {{0, 77}};
  bug.named_inputs = {{"x", 77}, {"weird key", -1}};
  bug.nprocs = 6;
  bug.focus = 0;
  bug.flaky = true;
  c.bugs.push_back(bug);
  c.covered = {0, 3, 5, 12};
  c.known_hang_signatures = {"test wall-clock timeout", "hang\nwith newline"};
  return c;
}

TEST(Ckpt, CampaignCheckpointRoundTrips) {
  // Through a session directory: the snapshot text plus the CSV row its
  // history is rebuilt from.
  const ckpt::CampaignCheckpoint c = sample_checkpoint();
  TempDir dir;
  SessionWriter writer(dir.path);
  writer.begin_iterations(c.iterations);
  writer.write_checkpoint(c);
  const auto back = read_checkpoint(dir.path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, c.seed);
  EXPECT_EQ(back->next_iteration, c.next_iteration);
  ASSERT_EQ(back->worker_cursors.size(), 1u);
  const ckpt::WorkerCursor& cur = back->worker_cursors[0];
  const ckpt::WorkerCursor& want = c.worker_cursors[0];
  EXPECT_EQ(cur.plan.inputs, want.plan.inputs);
  EXPECT_EQ(cur.plan.nprocs, want.plan.nprocs);
  EXPECT_EQ(cur.plan.focus, want.plan.focus);
  EXPECT_EQ(cur.next_is_restart, want.next_is_restart);
  EXPECT_EQ(cur.pending_depth, want.pending_depth);
  EXPECT_EQ(cur.failures, want.failures);
  EXPECT_EQ(cur.consecutive_replans, want.consecutive_replans);
  EXPECT_EQ(cur.bounded_phase, want.bounded_phase);
  EXPECT_EQ(cur.depth_bound, want.depth_bound);
  EXPECT_EQ(cur.strategy_name, want.strategy_name);
  EXPECT_EQ(cur.strategy_state, want.strategy_state);
  EXPECT_EQ(back->restarts, c.restarts);
  EXPECT_EQ(back->max_constraint_set, c.max_constraint_set);
  EXPECT_EQ(back->depth_bound_used, c.depth_bound_used);
  EXPECT_EQ(back->transient_retries, c.transient_retries);
  EXPECT_EQ(back->focus_replans, c.focus_replans);
  EXPECT_EQ(back->sandbox_runs, c.sandbox_runs);
  EXPECT_EQ(back->sandbox_signal_kills, c.sandbox_signal_kills);
  EXPECT_EQ(back->sandbox_hang_kills, c.sandbox_hang_kills);
  EXPECT_EQ(back->sandbox_harvest_bytes, c.sandbox_harvest_bytes);
  EXPECT_EQ(back->history_rows, 1u);
  EXPECT_TRUE(back->finished);
  ASSERT_EQ(back->iterations.size(), 1u);
  EXPECT_EQ(back->iterations[0].outcome, rt::Outcome::kSegfault);
  EXPECT_EQ(back->iterations[0].exec_seconds, c.iterations[0].exec_seconds);
  EXPECT_EQ(back->iterations[0].solve_seconds, c.iterations[0].solve_seconds);
  ASSERT_EQ(back->bugs.size(), 1u);
  EXPECT_EQ(back->bugs[0].message, c.bugs[0].message);
  EXPECT_EQ(back->bugs[0].named_inputs, c.bugs[0].named_inputs);
  EXPECT_EQ(back->bugs[0].flaky, true);
  EXPECT_EQ(back->covered, c.covered);
  ASSERT_EQ(cur.registry.size(), 2u);
  EXPECT_EQ(cur.registry[0].key, "x");
  EXPECT_EQ(cur.registry[0].cap, want.registry[0].cap);
  EXPECT_EQ(cur.registry[1].kind, rt::VarKind::kRankLocal);
  EXPECT_EQ(cur.registry[1].comm_index, 0);
  EXPECT_EQ(back->known_hang_signatures, c.known_hang_signatures);
}

TEST(Ckpt, TruncatedOrWrongVersionIsRejected) {
  const ckpt::CampaignCheckpoint c = sample_checkpoint();
  std::stringstream full;
  c.write(full);
  const std::string text = full.str();

  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_FALSE(ckpt::CampaignCheckpoint::read(truncated).has_value());

  std::stringstream wrong_version("compi-checkpoint 999\n" +
                                  text.substr(text.find('\n') + 1));
  EXPECT_FALSE(ckpt::CampaignCheckpoint::read(wrong_version).has_value());

  std::stringstream garbage("not a checkpoint at all\n");
  EXPECT_FALSE(ckpt::CampaignCheckpoint::read(garbage).has_value());
}

TEST(Ckpt, HistoryRowsMustMatchTheResumePoint) {
  const auto reads = [](const ckpt::CampaignCheckpoint& c) {
    std::stringstream text;
    c.write(text);
    return ckpt::CampaignCheckpoint::read(text).has_value();
  };
  ckpt::CampaignCheckpoint c = sample_checkpoint();
  c.finished = false;
  c.history_rows = 12;  // == next_iteration: every ordinal before it
  EXPECT_TRUE(reads(c));
  c.history_rows = 11;  // a mid-campaign snapshot may not span fewer
  EXPECT_FALSE(reads(c));
  c.finished = true;
  EXPECT_TRUE(reads(c));
  c.history_rows = 13;  // and none may span more
  EXPECT_FALSE(reads(c));
  c.history_rows = 1;  // a coordinator's spans none
  c.is_coordinator = true;
  EXPECT_FALSE(reads(c));
  c.history_rows = 0;
  EXPECT_TRUE(reads(c));
}

// ---------------------------------------------------------------------------
// Resume equivalence.
// ---------------------------------------------------------------------------

CampaignOptions resume_opts(const fs::path& dir) {
  CampaignOptions opts;
  opts.seed = 21;
  opts.iterations = 60;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 30;
  opts.checkpoint_interval = 1;
  opts.log_dir = dir.string();
  return opts;
}

/// iterations.csv with the wall-clock columns (exec/solve seconds) blanked:
/// those are the only fields that legitimately differ across processes.
std::string csv_without_timings(const fs::path& session_dir) {
  std::ifstream in(session_dir / "iterations.csv");
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string field;
    int i = 0;
    while (std::getline(fields, field, ',')) {
      if (i == 6 || i == 7) field = "_";  // exec_seconds, solve_seconds
      out << (i ? "," : "") << field;
      ++i;
    }
    out << '\n';
  }
  return out.str();
}

void expect_resume_equivalence(int kill_after) {
  TempDir full_dir, killed_dir;

  // Uninterrupted reference run.
  Campaign full(fig2_target(/*with_bug=*/true), resume_opts(full_dir.path));
  const CampaignResult want = full.run();

  // Same campaign, killed after `kill_after` iterations...
  CampaignOptions killed = resume_opts(killed_dir.path);
  killed.halt_after_iterations = kill_after;
  const CampaignResult partial =
      Campaign(fig2_target(/*with_bug=*/true), killed).run();
  ASSERT_EQ(partial.iterations.size(), static_cast<std::size_t>(kill_after));
  ASSERT_TRUE(fs::exists(killed_dir.path / "checkpoint.txt"));
  ASSERT_FALSE(fs::exists(killed_dir.path / "summary.txt"))
      << "a killed process cannot have written its summary";
  // The serial campaign is one worker: its loop state is cursor 0.
  const auto snapshot = read_checkpoint(killed_dir.path);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->next_iteration, kill_after);
  ASSERT_EQ(snapshot->worker_cursors.size(), 1u);
  EXPECT_EQ(snapshot->worker_cursors[0].bounded_phase,
            kill_after >= resume_opts(killed_dir.path).dfs_phase_iterations);

  // ...then resumed from its session directory.
  CampaignOptions resumed = resume_opts(killed_dir.path);
  resumed.resume = true;
  const CampaignResult got =
      Campaign(fig2_target(/*with_bug=*/true), resumed).run();

  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(got.covered_branches, want.covered_branches);
  EXPECT_EQ(got.restarts, want.restarts);
  ASSERT_EQ(got.bugs.size(), want.bugs.size());
  for (std::size_t i = 0; i < want.bugs.size(); ++i) {
    EXPECT_EQ(got.bugs[i].message, want.bugs[i].message);
    EXPECT_EQ(got.bugs[i].first_iteration, want.bugs[i].first_iteration);
    EXPECT_EQ(got.bugs[i].occurrences, want.bugs[i].occurrences);
    EXPECT_EQ(got.bugs[i].named_inputs, want.bugs[i].named_inputs);
  }
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < want.iterations.size(); ++i) {
    EXPECT_EQ(got.iterations[i].iteration, want.iterations[i].iteration) << i;
    EXPECT_EQ(got.iterations[i].nprocs, want.iterations[i].nprocs) << i;
    EXPECT_EQ(got.iterations[i].focus, want.iterations[i].focus) << i;
    EXPECT_EQ(got.iterations[i].outcome, want.iterations[i].outcome) << i;
    EXPECT_EQ(got.iterations[i].constraint_set_size,
              want.iterations[i].constraint_set_size)
        << i;
    EXPECT_EQ(got.iterations[i].covered_branches,
              want.iterations[i].covered_branches)
        << i;
    EXPECT_EQ(got.iterations[i].restart, want.iterations[i].restart) << i;
  }
  // The on-disk CSV (all rows, including the tail the resumed process
  // produced) matches the uninterrupted session byte-for-byte once the
  // wall-clock columns are masked.
  EXPECT_EQ(csv_without_timings(killed_dir.path),
            csv_without_timings(full_dir.path));
}

TEST(Resume, KilledBeforePhaseSwitchMatchesUninterrupted) {
  expect_resume_equivalence(/*kill_after=*/20);
}

TEST(Resume, KilledAfterPhaseSwitchMatchesUninterrupted) {
  expect_resume_equivalence(/*kill_after=*/40);
}

TEST(Resume, MissingCheckpointFallsBackToFreshRun) {
  TempDir tmp;
  CampaignOptions opts = resume_opts(tmp.path);
  opts.iterations = 10;
  opts.resume = true;  // nothing to resume from
  const CampaignResult result = Campaign(fig2_target(), opts).run();
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.iterations.size(), 10u);
  EXPECT_TRUE(fs::exists(tmp.path / "summary.txt"));
}

TEST(Resume, CorruptCheckpointFallsBackToFreshRun) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  std::ofstream(tmp.path / "checkpoint.txt") << "compi-checkpoint 1\njunk\n";
  CampaignOptions opts = resume_opts(tmp.path);
  opts.iterations = 8;
  opts.resume = true;
  const CampaignResult result = Campaign(fig2_target(), opts).run();
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.iterations.size(), 8u);
}

TEST(Resume, SeedMismatchIsNotResumed) {
  TempDir tmp;
  CampaignOptions first = resume_opts(tmp.path);
  first.iterations = 6;
  (void)Campaign(fig2_target(), first).run();
  ASSERT_TRUE(fs::exists(tmp.path / "checkpoint.txt"));

  CampaignOptions other = resume_opts(tmp.path);
  other.iterations = 6;
  other.seed = first.seed + 1;  // different campaign: checkpoint is stale
  other.resume = true;
  const CampaignResult result = Campaign(fig2_target(), other).run();
  EXPECT_FALSE(result.resumed);
}

TEST(Resume, CompletedSessionResumesToNoFurtherWork) {
  TempDir tmp;
  CampaignOptions opts = resume_opts(tmp.path);
  opts.iterations = 12;
  const CampaignResult first = Campaign(fig2_target(), opts).run();

  opts.resume = true;
  const CampaignResult again = Campaign(fig2_target(), opts).run();
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.iterations.size(), first.iterations.size());
  EXPECT_EQ(again.covered_branches, first.covered_branches);
}

}  // namespace
}  // namespace compi
