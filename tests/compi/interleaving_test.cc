// Wildcard-matching exploration (--explore-matchings) end to end:
//   * the interleaving frontier (fork / sleep-set dedup / cap) in isolation,
//   * the new Outcome enumerators round-tripping through every serialized
//     surface (outcome strings, checkpoint v6, bugs.txt, the sandbox wire),
//   * the headline acceptance property — a seeded matching-order-dependent
//     deadlock that input-only search can never hit is found by exploration,
//     reported as kDeadlock (never kTimeout) with a replayable decision
//     vector, in-process and under --isolate,
//   * serial campaigns with exploration off stay deterministic.
#include "compi/interleaving.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "compi/checkpoint.h"
#include "compi/driver.h"
#include "compi/explain.h"
#include "compi/session.h"
#include "obs/journal.h"
#include "sandbox/wire.h"
#include "targets/target_common.h"

namespace compi {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_interleaving_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

// ---------------------------------------------------------------------------
// Frontier mechanics.
// ---------------------------------------------------------------------------

std::vector<minimpi::MatchRecord> two_decision_trace() {
  // Decision 0: rank 0, seq 0, chose 1 of {1, 2, 3}.
  // Decision 1: rank 0, seq 1, chose 2 of {2, 3}.
  minimpi::MatchRecord d0;
  d0.rank = 0;
  d0.seq = 0;
  d0.chosen_src = 1;
  d0.feasible = {1, 2, 3};
  minimpi::MatchRecord d1;
  d1.rank = 0;
  d1.seq = 1;
  d1.chosen_src = 2;
  d1.feasible = {2, 3};
  return {d0, d1};
}

TEST(InterleavingFrontier, ForksEveryAlternativeWithPinnedPrefix) {
  InterleavingFrontier frontier;
  const solver::Assignment inputs{{0, 42}};
  const std::size_t added = enqueue_alternatives(
      frontier, two_decision_trace(), inputs, 4, 1, /*max=*/0);
  // Alternatives: d0->2, d0->3, d1->3.
  EXPECT_EQ(added, 3u);
  ASSERT_EQ(frontier.queue.size(), 3u);
  EXPECT_EQ(frontier.enqueued, 3u);
  EXPECT_EQ(frontier.pruned, 0u);
  EXPECT_EQ(frontier.capped, 0u);
  // First fork flips d0 with an empty pinned prefix...
  EXPECT_EQ(frontier.queue[0].plan,
            (minimpi::MatchPlan{{0, 0, 2}}));
  EXPECT_EQ(frontier.queue[1].plan,
            (minimpi::MatchPlan{{0, 0, 3}}));
  // ...the d1 fork pins d0 to its OBSERVED choice first.
  EXPECT_EQ(frontier.queue[2].plan,
            (minimpi::MatchPlan{{0, 0, 1}, {0, 1, 3}}));
  // Replays inherit the parent run's inputs and shape, and distinct ids.
  EXPECT_EQ(frontier.queue[0].inputs, inputs);
  EXPECT_EQ(frontier.queue[0].nprocs, 4);
  EXPECT_EQ(frontier.queue[0].focus, 1);
  EXPECT_EQ(frontier.queue[0].id, 1);
  EXPECT_EQ(frontier.queue[2].id, 3);
}

TEST(InterleavingFrontier, SleepSetPrunesAlreadySeenPrefixes) {
  InterleavingFrontier frontier;
  const solver::Assignment inputs;
  enqueue_alternatives(frontier, two_decision_trace(), inputs, 4, 0, 0);
  // The same trace observed again (another iteration, same matching) must
  // enqueue nothing new.
  const std::size_t added =
      enqueue_alternatives(frontier, two_decision_trace(), inputs, 4, 0, 0);
  EXPECT_EQ(added, 0u);
  EXPECT_EQ(frontier.pruned, 3u);
  EXPECT_EQ(frontier.queue.size(), 3u);
}

TEST(InterleavingFrontier, CapCountsInsteadOfSilentlyDropping) {
  InterleavingFrontier frontier;
  const solver::Assignment inputs;
  enqueue_alternatives(frontier, two_decision_trace(), inputs, 4, 0,
                       /*max=*/2);
  EXPECT_EQ(frontier.enqueued, 2u);
  EXPECT_EQ(frontier.capped, 1u);
  EXPECT_EQ(frontier.queue.size(), 2u);
}

TEST(InterleavingFrontier, PlanHashIsOrderAndValueSensitive) {
  const minimpi::MatchPlan a{{0, 0, 1}, {0, 1, 2}};
  const minimpi::MatchPlan b{{0, 1, 2}, {0, 0, 1}};
  const minimpi::MatchPlan c{{0, 0, 1}, {0, 1, 3}};
  EXPECT_EQ(plan_hash(a), plan_hash(a));
  EXPECT_NE(plan_hash(a), plan_hash(b));
  EXPECT_NE(plan_hash(a), plan_hash(c));
  EXPECT_NE(plan_hash({}), plan_hash(a));
}

// ---------------------------------------------------------------------------
// Outcome round trips across every serialized surface.
// ---------------------------------------------------------------------------

TEST(MatchOutcomes, StringRoundTripIncludingNewEnumerators) {
  for (const rt::Outcome o :
       {rt::Outcome::kOk, rt::Outcome::kSegfault, rt::Outcome::kFpe,
        rt::Outcome::kAssert, rt::Outcome::kTimeout, rt::Outcome::kMpiError,
        rt::Outcome::kAborted, rt::Outcome::kDeadlock,
        rt::Outcome::kOrphanMessage}) {
    const auto back = rt::outcome_from_string(rt::to_string(o));
    ASSERT_TRUE(back.has_value()) << rt::to_string(o);
    EXPECT_EQ(*back, o);
  }
  EXPECT_STREQ(rt::to_string(rt::Outcome::kDeadlock), "deadlock");
  EXPECT_STREQ(rt::to_string(rt::Outcome::kOrphanMessage), "orphan-message");
  // Unknown names (future enumerators, corrupt files) parse to nullopt,
  // never to a wrong verdict.
  EXPECT_FALSE(rt::outcome_from_string("no-such-outcome").has_value());
  EXPECT_FALSE(rt::outcome_from_string("").has_value());
  EXPECT_FALSE(rt::outcome_from_string("Deadlock").has_value());
}

TEST(MatchOutcomes, CheckpointV6RoundTripsInterleavingState) {
  ckpt::CampaignCheckpoint c;
  c.seed = 9;
  c.next_iteration = 4;
  c.history_rows = 4;
  for (int i = 0; i < 3; ++i) {
    IterationRecord earlier;
    earlier.iteration = i;
    c.iterations.push_back(earlier);
  }
  IterationRecord rec;
  rec.iteration = 3;
  rec.nprocs = 3;
  rec.outcome = rt::Outcome::kDeadlock;
  rec.interleaving = 7;
  c.iterations.push_back(rec);
  BugRecord bug;
  bug.outcome = rt::Outcome::kOrphanMessage;
  bug.message = "1 message(s) unreceived at finalize";
  bug.named_inputs = {{"x", 3}};
  bug.decisions = {{0, 0, 2}, {1, 0, 3}};
  c.bugs.push_back(bug);
  PendingInterleaving pend;
  pend.id = 7;
  pend.plan = {{0, 0, 2}};
  pend.inputs = {{0, 42}, {2, -1}};
  pend.nprocs = 3;
  pend.focus = 1;
  // Pending matchings belong to the worker that forked them.
  ckpt::WorkerCursor cur;
  cur.strategy_name = "DFS";
  cur.pending_interleavings.push_back(pend);
  cur.next_interleaving_id = 8;
  c.worker_cursors.push_back(cur);
  c.interleaving_seen = {11, 42, 99};
  c.interleavings_enqueued = 7;
  c.interleavings_run = 6;
  c.interleavings_pruned = 5;
  c.interleavings_capped = 2;

  // The iteration rows round-trip through the session's iterations.csv,
  // everything else through the snapshot text.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("compi_match_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  SessionWriter writer(dir);
  writer.begin_iterations(c.iterations);
  writer.write_checkpoint(c);
  const auto back = read_checkpoint(dir);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->iterations.size(), 4u);
  EXPECT_EQ(back->iterations[3].outcome, rt::Outcome::kDeadlock);
  EXPECT_EQ(back->iterations[3].interleaving, 7);
  ASSERT_EQ(back->bugs.size(), 1u);
  EXPECT_EQ(back->bugs[0].outcome, rt::Outcome::kOrphanMessage);
  EXPECT_EQ(back->bugs[0].decisions, c.bugs[0].decisions);
  ASSERT_EQ(back->worker_cursors.size(), 1u);
  const std::vector<PendingInterleaving>& pending =
      back->worker_cursors[0].pending_interleavings;
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, 7);
  EXPECT_EQ(pending[0].plan, pend.plan);
  EXPECT_EQ(pending[0].inputs, pend.inputs);
  EXPECT_EQ(pending[0].nprocs, 3);
  EXPECT_EQ(pending[0].focus, 1);
  EXPECT_EQ(back->interleaving_seen, c.interleaving_seen);
  EXPECT_EQ(back->worker_cursors[0].next_interleaving_id, 8);
  EXPECT_EQ(back->interleavings_enqueued, 7u);
  EXPECT_EQ(back->interleavings_run, 6u);
  EXPECT_EQ(back->interleavings_pruned, 5u);
  EXPECT_EQ(back->interleavings_capped, 2u);
}

TEST(MatchOutcomes, SandboxWireRoundTripsMatchTraceAndVerdicts) {
  minimpi::RunResult run;
  run.focus = 1;
  run.wall_seconds = 0.125;
  run.ranks.assign(2, {});
  run.ranks[0].outcome = rt::Outcome::kDeadlock;
  run.ranks[0].message = "deadlock: rank 0 waits recv(src=1, tag=0)";
  run.ranks[1].outcome = rt::Outcome::kAborted;
  run.match_diverged = true;
  minimpi::MatchRecord m;
  m.rank = 0;
  m.seq = 0;
  m.chosen_src = 2;
  m.comm_uid = 0;
  m.tag = 7;
  m.feasible = {1, 2};
  run.match_trace.push_back(m);

  minimpi::RunResult back;
  ASSERT_TRUE(sandbox::decode_run_result(sandbox::encode_run_result(run),
                                         back));
  ASSERT_EQ(back.ranks.size(), 2u);
  EXPECT_EQ(back.ranks[0].outcome, rt::Outcome::kDeadlock);
  EXPECT_EQ(back.ranks[0].message, run.ranks[0].message);
  EXPECT_EQ(back.ranks[1].outcome, rt::Outcome::kAborted);
  EXPECT_TRUE(back.match_diverged);
  ASSERT_EQ(back.match_trace.size(), 1u);
  EXPECT_EQ(back.match_trace[0].rank, 0);
  EXPECT_EQ(back.match_trace[0].seq, 0);
  EXPECT_EQ(back.match_trace[0].chosen_src, 2);
  EXPECT_EQ(back.match_trace[0].tag, 7);
  EXPECT_EQ(back.match_trace[0].feasible, m.feasible);
}

// ---------------------------------------------------------------------------
// The seeded matching-order-dependent deadlock target.
// ---------------------------------------------------------------------------

enum class WcSite : sym::SiteId { kBig, kCount };

const rt::BranchTable& wc_table() {
  static const rt::BranchTable table = [] {
    rt::BranchTable t;
    t.add_site("relay", "x_big");
    t.finalize();
    return t;
  }();
  return table;
}

/// Ranks 1 and 2 each send one message to rank 0, strictly ordered by
/// barriers (1's arrives first).  Rank 0 consumes one via ANY_SOURCE, then
/// one from rank 2 specifically.  Arrival order — and the scheduler's
/// lowest-feasible default — matches the wildcard to rank 1, so every
/// input-driven run succeeds.  Only the flipped interleaving (wildcard
/// takes rank 2's message) leaves recv(src=2) waiting forever: a deadlock
/// reachable through matching order alone, invisible to input search.
TargetInfo wildcard_relay_target() {
  TargetInfo info;
  info.name = "wildcard-relay";
  info.table = &wc_table();
  info.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    using targets::br;
    using sym::SymInt;
    const SymInt x = ctx.input_int_capped("x", 100);
    if (br(ctx, WcSite::kBig, x > SymInt(50))) {
      // concrete work only; the matching bug does not depend on inputs
    }
    if (world.raw_size() < 3) {
      world.barrier();
      return;
    }
    const int me = world.raw_rank();
    const std::vector<int> mine{me};
    if (me == 1) world.send(std::span<const int>(mine), 0, 7);
    world.barrier();
    if (me == 2) world.send(std::span<const int>(mine), 0, 7);
    world.barrier();
    if (me == 0) {
      std::vector<int> first(1, -1), second(1, -1);
      world.recv(std::span<int>(first), minimpi::kAnySource, 7);
      world.recv(std::span<int>(second), 2, 7);
    }
  };
  info.sloc = 20;
  return info;
}

CampaignOptions wc_opts(const fs::path& dir) {
  CampaignOptions opts;
  opts.seed = 3;
  opts.iterations = 12;
  opts.initial_nprocs = 3;
  opts.max_procs = 3;
  opts.dfs_phase_iterations = 6;
  opts.checkpoint_interval = 0;
  opts.log_dir = dir.string();
  return opts;
}

TEST(MatchExploration, FindsSeededWildcardDeadlockWithReplayableDecisions) {
  TempDir dir;
  CampaignOptions opts = wc_opts(dir.path);
  opts.explore_matchings = true;
  opts.journal = true;
  const CampaignResult result =
      Campaign(wildcard_relay_target(), opts).run();

  // Exploration forked and ran at least the flipped wildcard decision.
  EXPECT_GE(result.interleavings_enqueued, 1u);
  EXPECT_GE(result.interleavings_run, 1u);
  EXPECT_GE(result.deadlocks_found, 1u);

  // The deadlock iteration is an interleaving replay, reported exactly —
  // never as a wall-clock timeout.
  bool deadlock_replay = false;
  for (const IterationRecord& rec : result.iterations) {
    EXPECT_NE(rec.outcome, rt::Outcome::kTimeout);
    if (rec.outcome == rt::Outcome::kDeadlock && rec.interleaving >= 0) {
      deadlock_replay = true;
    }
  }
  EXPECT_TRUE(deadlock_replay);

  // The bug carries the replayable decision vector: the wildcard receive
  // (rank 0, seq 0) forced to sender 2.  Confirmation replayed it with the
  // same plan, so the bug is not flaky.
  const BugRecord* deadlock_bug = nullptr;
  for (const BugRecord& bug : result.bugs) {
    if (bug.outcome == rt::Outcome::kDeadlock) deadlock_bug = &bug;
  }
  ASSERT_NE(deadlock_bug, nullptr);
  ASSERT_FALSE(deadlock_bug->decisions.empty());
  EXPECT_EQ(deadlock_bug->decisions[0], (minimpi::MatchDecision{0, 0, 2}));
  EXPECT_FALSE(deadlock_bug->flaky);
  EXPECT_NE(deadlock_bug->message.find("deadlock"), std::string::npos);

  // bugs.txt round-trips the decision vector.
  const std::vector<LoggedBug> logged = read_bugs(dir.path / "bugs.txt");
  const LoggedBug* logged_deadlock = nullptr;
  for (const LoggedBug& b : logged) {
    if (b.outcome == rt::Outcome::kDeadlock) logged_deadlock = &b;
  }
  ASSERT_NE(logged_deadlock, nullptr);
  EXPECT_EQ(logged_deadlock->decisions, deadlock_bug->decisions);

  // The journal attributes the exploration: interleaving dispatches,
  // per-decision match_choice events, and the deadlock with its cycle.
  std::size_t malformed = 0;
  const auto journal =
      obs::read_journal(dir.path / "journal.jsonl", &malformed);
  EXPECT_EQ(malformed, 0u);
  bool saw_interleaving = false, saw_choice = false, saw_deadlock = false;
  for (const obs::ParsedEvent& ev : journal) {
    if (ev.type == "interleaving") saw_interleaving = true;
    if (ev.type == "match_choice") saw_choice = true;
    if (ev.type == "deadlock") saw_deadlock = true;
  }
  EXPECT_TRUE(saw_interleaving);
  EXPECT_TRUE(saw_choice);
  EXPECT_TRUE(saw_deadlock);

  // summary.txt exposes the exploration totals.
  const auto summary = read_summary(dir.path / "summary.txt");
  EXPECT_EQ(summary.at("deadlocks_found"),
            std::to_string(result.deadlocks_found));
  EXPECT_EQ(summary.at("interleavings_run"),
            std::to_string(result.interleavings_run));

  // --explain surfaces the matchings section from the same artifacts.
  std::ostringstream report;
  ASSERT_TRUE(explain_session(dir.path, report));
  EXPECT_NE(report.str().find("Wildcard matchings"), std::string::npos);
  EXPECT_NE(report.str().find("deadlocks: "), std::string::npos);
}

TEST(MatchExploration, InputOnlySearchNeverHitsTheOrderingDeadlock) {
  TempDir dir;
  const CampaignOptions opts = wc_opts(dir.path);  // exploration off
  const CampaignResult result =
      Campaign(wildcard_relay_target(), opts).run();
  EXPECT_EQ(result.deadlocks_found, 0u);
  EXPECT_EQ(result.interleavings_enqueued, 0u);
  EXPECT_TRUE(result.bugs.empty());
  for (const IterationRecord& rec : result.iterations) {
    EXPECT_EQ(rec.outcome, rt::Outcome::kOk);
    EXPECT_EQ(rec.interleaving, -1);
  }
}

TEST(MatchExploration, IsolatedRunsReportDeadlockNotTimeout) {
  TempDir dir;
  CampaignOptions opts = wc_opts(dir.path);
  opts.explore_matchings = true;
  opts.isolate = true;
  const CampaignResult result =
      Campaign(wildcard_relay_target(), opts).run();
  EXPECT_GE(result.deadlocks_found, 1u);
  bool saw_deadlock = false;
  for (const IterationRecord& rec : result.iterations) {
    EXPECT_NE(rec.outcome, rt::Outcome::kTimeout);
    if (rec.outcome == rt::Outcome::kDeadlock) saw_deadlock = true;
  }
  EXPECT_TRUE(saw_deadlock);
  const BugRecord* deadlock_bug = nullptr;
  for (const BugRecord& bug : result.bugs) {
    if (bug.outcome == rt::Outcome::kDeadlock) deadlock_bug = &bug;
  }
  ASSERT_NE(deadlock_bug, nullptr);
  // The decision vector crossed the sandbox wire intact.
  EXPECT_EQ(deadlock_bug->decisions[0], (minimpi::MatchDecision{0, 0, 2}));
}

TEST(MatchExploration, ParallelWorkersShareTheInterleavingFrontier) {
  // Four workers, one sleep set: each worker replays the forks of its own
  // runs, the campaign's sleep set merges at every epoch barrier, and the
  // ordering deadlock is still found.  (CI also runs this under
  // ThreadSanitizer.)
  TempDir dir;
  CampaignOptions opts = wc_opts(dir.path);
  opts.explore_matchings = true;
  opts.workers = 4;
  opts.iterations = 16;
  const CampaignResult result =
      Campaign(wildcard_relay_target(), opts).run();
  EXPECT_GE(result.interleavings_run, 1u);
  EXPECT_GE(result.deadlocks_found, 1u);
  bool saw_deadlock = false;
  for (const IterationRecord& rec : result.iterations) {
    EXPECT_NE(rec.outcome, rt::Outcome::kTimeout);
    if (rec.outcome == rt::Outcome::kDeadlock) saw_deadlock = true;
  }
  EXPECT_TRUE(saw_deadlock);
  const BugRecord* deadlock_bug = nullptr;
  for (const BugRecord& bug : result.bugs) {
    if (bug.outcome == rt::Outcome::kDeadlock) deadlock_bug = &bug;
  }
  ASSERT_NE(deadlock_bug, nullptr);
  EXPECT_FALSE(deadlock_bug->decisions.empty());
}

TEST(MatchExploration, ParallelWorkersShareTheInterleavingCap) {
  // Each worker's view gets an equal share of the cap's headroom, so four
  // workers in one epoch cannot enqueue four forks under a cap of one.
  TempDir dir;
  CampaignOptions opts = wc_opts(dir.path);
  opts.explore_matchings = true;
  opts.workers = 4;
  opts.iterations = 16;
  opts.max_interleavings = 1;
  const CampaignResult result =
      Campaign(wildcard_relay_target(), opts).run();
  EXPECT_EQ(result.interleavings_enqueued, 1u);
  EXPECT_GT(result.interleavings_capped, 0u);
}

TEST(MatchExploration, ExplorationIsDeterministicAcrossRuns) {
  const auto run_once = [](const fs::path& dir) {
    CampaignOptions opts = wc_opts(dir);
    opts.explore_matchings = true;
    return Campaign(wildcard_relay_target(), opts).run();
  };
  TempDir a, b;
  const CampaignResult ra = run_once(a.path);
  const CampaignResult rb = run_once(b.path);
  ASSERT_EQ(ra.iterations.size(), rb.iterations.size());
  for (std::size_t i = 0; i < ra.iterations.size(); ++i) {
    EXPECT_EQ(ra.iterations[i].outcome, rb.iterations[i].outcome) << i;
    EXPECT_EQ(ra.iterations[i].interleaving, rb.iterations[i].interleaving)
        << i;
  }
  EXPECT_EQ(ra.interleavings_enqueued, rb.interleavings_enqueued);
  EXPECT_EQ(ra.deadlocks_found, rb.deadlocks_found);
  ASSERT_EQ(ra.bugs.size(), rb.bugs.size());
  for (std::size_t i = 0; i < ra.bugs.size(); ++i) {
    EXPECT_EQ(ra.bugs[i].decisions, rb.bugs[i].decisions);
  }
}

TEST(MatchExploration, SerialSleepSetPrunesAcrossIterations) {
  // The relay's only multi-feasible decision is rank 0's wildcard receive
  // (seq 0, senders 1 and 2), so there are two decision prefixes to fork:
  // [0/0->2] from the input-driven runs, and [0/0->1] from the replay of
  // [0/0->2].  The sleep set carries over from iteration to iteration, so
  // the replay of [0/0->1] re-forks nothing and every later fork is
  // pruned — well below the cap — and the final snapshot keeps the set.
  TempDir dir;
  CampaignOptions opts = wc_opts(dir.path);
  opts.explore_matchings = true;
  opts.iterations = 40;
  opts.checkpoint_interval = 10;
  const CampaignResult result =
      Campaign(wildcard_relay_target(), opts).run();
  EXPECT_GT(result.interleavings_pruned, 0u);
  EXPECT_EQ(result.interleavings_capped, 0u);
  EXPECT_EQ(result.interleavings_enqueued, 2u);
  EXPECT_EQ(result.interleavings_run, 2u);
  EXPECT_GE(result.deadlocks_found, 1u);

  const std::optional<ckpt::CampaignCheckpoint> c =
      read_checkpoint(dir.path.string());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->interleaving_seen.size(), 2u);
  EXPECT_EQ(c->interleavings_pruned, result.interleavings_pruned);
}

TEST(MatchExploration, ExplorationOffKeepsSessionsByteIdentical) {
  const auto slurp = [](const fs::path& file) {
    std::ifstream in(file);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  // Timing columns vary run to run; strip exec/solve seconds (cells 6, 7).
  const auto stable_csv = [&](const fs::path& file) {
    std::ifstream in(file);
    std::string line, out;
    while (std::getline(in, line)) {
      std::stringstream ss(line);
      std::string field;
      int idx = 0;
      while (std::getline(ss, field, ',')) {
        out += (idx == 6 || idx == 7) ? std::string("_") : field;
        out += ',';
        ++idx;
      }
      out += '\n';
    }
    return out;
  };
  TempDir a, b;
  (void)Campaign(wildcard_relay_target(), wc_opts(a.path)).run();
  (void)Campaign(wildcard_relay_target(), wc_opts(b.path)).run();
  EXPECT_EQ(stable_csv(a.path / "iterations.csv"),
            stable_csv(b.path / "iterations.csv"));
  EXPECT_EQ(slurp(a.path / "ledger.csv"), slurp(b.path / "ledger.csv"));
  EXPECT_EQ(slurp(a.path / "bugs.txt"), slurp(b.path / "bugs.txt"));
}

}  // namespace
}  // namespace compi
