// Retries and graceful degradation: transient solver failures are
// retried with a relaxed budget, per-test timeouts are retried before they
// count as hangs, bugs are confirmed (and marked flaky when they don't
// reproduce), and a dead focus rank triggers a focus re-plan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "compi/session.h"
#include "obs/journal.h"
#include "solver/solver.h"
#include "targets/target_common.h"
#include "tests/compi/fig2_target.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_retry_test_" + std::to_string(::getpid()) + "_" +
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

// ---------------------------------------------------------------------------
// Budget exhaustion is "unknown", not UNSAT.
// ---------------------------------------------------------------------------

TEST(SolverBudget, ExhaustionIsDistinguishedFromProvenUnsat) {
  // x + y == 100 and x - y == 51: the unique solution is x = 75.5, so the
  // system is integer-UNSAT, but neither predicate alone is refutable by
  // interval/GCD propagation — proving UNSAT takes enumeration, and a tiny
  // node budget gives up "unknown" instead.
  solver::LinearExpr sum;
  sum.add_term(0, 1);
  sum.add_term(1, 1);
  sum.add_constant(-100);
  solver::LinearExpr diff;
  diff.add_term(0, 1);
  diff.add_term(1, -1);
  diff.add_constant(-51);
  const std::vector<solver::Predicate> preds{
      {sum, solver::CompareOp::kEq}, {diff, solver::CompareOp::kEq}};
  solver::DomainMap domains{{0, {0, 100}}, {1, {0, 100}}};

  bool exhausted = false;
  solver::Solver tiny({/*max_search_nodes=*/3});
  EXPECT_FALSE(tiny.solve(preds, domains, {}, &exhausted).has_value());
  EXPECT_TRUE(exhausted) << "the tiny budget must be the reason";

  solver::Solver big({/*max_search_nodes=*/1'000'000});
  EXPECT_FALSE(big.solve(preds, domains, {}, &exhausted).has_value());
  EXPECT_FALSE(exhausted) << "with budget to spare this is proven UNSAT";

  // Propagation-detected inconsistency never charges the budget.
  const std::vector<solver::Predicate> contradiction{
      solver::make_ge_const(0, 5), solver::make_le_const(0, 3)};
  EXPECT_FALSE(tiny.solve(contradiction, domains, {}, &exhausted).has_value());
  EXPECT_FALSE(exhausted);

  // And the incremental entry point surfaces the same flag.
  const solver::SolveResult inc = tiny.solve_incremental(preds, domains, {});
  EXPECT_FALSE(inc.sat);
  EXPECT_TRUE(inc.budget_exhausted);
}

TEST(Campaign, SolverBudgetRetriesAreCountedAndBounded) {
  const TargetInfo target = fig2_target();
  CampaignOptions opts;
  opts.seed = 5;
  opts.iterations = 40;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 15;
  opts.solver_node_budget = 2;  // almost every query exhausts this

  CampaignOptions no_retry = opts;
  no_retry.retry_max = 0;
  const CampaignResult without = Campaign(target, no_retry).run();
  EXPECT_EQ(without.transient_retries, 0u);

  CampaignOptions with_retry = opts;
  with_retry.retry_max = 3;
  const CampaignResult with = Campaign(target, with_retry).run();
  EXPECT_GT(with.transient_retries, 0u)
      << "budget-exhausted solves must be retried with a relaxed budget";
}

// ---------------------------------------------------------------------------
// Flaky-bug confirmation.
// ---------------------------------------------------------------------------

TEST(Campaign, InjectedCrashIsConfirmedAsFlaky) {
  // Rank 1 (never the initial focus) is crashed by the environment, not by
  // the target: the confirmation replay without chaos succeeds, so the
  // recorded bug must carry the flaky marker.
  TempDir tmp;
  CampaignOptions opts;
  opts.seed = 3;
  opts.iterations = 4;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.chaos.crash_rank = 1;
  opts.chaos.crash_at_call = 1;
  opts.log_dir = tmp.path.string();

  const CampaignResult result = Campaign(fig2_target(), opts).run();
  ASSERT_FALSE(result.bugs.empty());
  EXPECT_EQ(result.bugs[0].outcome, rt::Outcome::kSegfault);
  EXPECT_TRUE(result.bugs[0].flaky)
      << "an injected fault must not pass for a reproducible target bug";

  const std::string bugs_txt = slurp(tmp.path / "bugs.txt");
  EXPECT_NE(bugs_txt.find("flaky=1"), std::string::npos) << bugs_txt;

  const std::vector<LoggedBug> logged = read_bugs(tmp.path / "bugs.txt");
  ASSERT_FALSE(logged.empty());
  EXPECT_TRUE(logged[0].flaky);
}

TEST(Campaign, GenuineBugIsNotFlaky) {
  const TargetInfo target = fig2_target(/*with_bug=*/true);
  CampaignOptions opts;
  opts.seed = 11;
  opts.iterations = 300;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 30;
  const CampaignResult result = Campaign(target, opts).run();
  ASSERT_FALSE(result.bugs.empty());
  EXPECT_FALSE(result.bugs.front().flaky)
      << "the seeded y == 77 assertion reproduces deterministically";
}

// ---------------------------------------------------------------------------
// Focus re-plan when the planned focus dies before recording anything.
// ---------------------------------------------------------------------------

#define REPLAN_SITES(X) X(x_low, "work")
COMPI_DEFINE_TARGET_SITES(ReplanSite, replan_table, REPLAN_SITES)

/// Barrier FIRST: a rank crashed at its first MPI call dies before any
/// symbolic branch is recorded, so a crashed focus yields an empty path.
TargetInfo replan_target() {
  TargetInfo info;
  info.name = "replan";
  info.table = &replan_table();
  info.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    world.barrier();
    const sym::SymInt x = ctx.input_int_capped("x", 100);
    if (targets::br(ctx, ReplanSite::x_low, x < sym::SymInt(50))) {
      // low half
    }
    world.barrier();
  };
  info.sloc = 8;
  return info;
}

TEST(Campaign, DeadFocusTriggersFocusReplan) {
  CampaignOptions opts;
  opts.seed = 2;
  opts.iterations = 8;
  opts.initial_nprocs = 4;
  opts.initial_focus = 0;
  opts.max_procs = 8;
  opts.confirm_bugs = false;  // keep the wall-clock down
  opts.chaos.crash_rank = 0;  // the planned focus dies at the first barrier
  opts.chaos.crash_at_call = 1;
  opts.test_timeout = std::chrono::milliseconds(2000);

  const CampaignResult result = Campaign(replan_target(), opts).run();
  EXPECT_GT(result.focus_replans, 0u);
  // The first iterations walk the focus away from the dead rank.
  ASSERT_GE(result.iterations.size(), 3u);
  EXPECT_EQ(result.iterations[0].focus, 0);
  EXPECT_EQ(result.iterations[1].focus, 1);
  EXPECT_EQ(result.iterations[2].focus, 2);
}

TEST(Campaign, BugBudgetHitOnAFocusReplanIsJournaled) {
  // The crashed focus is both the budget's one bug and a re-plan
  // iteration; the stop must be journaled like any other bug-budget stop.
  TempDir dir;
  CampaignOptions opts;
  opts.seed = 2;
  opts.iterations = 8;
  opts.initial_nprocs = 4;
  opts.initial_focus = 0;
  opts.max_procs = 8;
  opts.confirm_bugs = false;
  opts.chaos.crash_rank = 0;
  opts.chaos.crash_at_call = 1;
  opts.max_bugs = 1;
  opts.journal = true;
  opts.log_dir = dir.path.string();

  const CampaignResult result = Campaign(replan_target(), opts).run();
  ASSERT_EQ(result.bugs.size(), 1u);
  ASSERT_EQ(result.iterations.size(), 1u);
  EXPECT_EQ(result.focus_replans, 1u);
  int budget_events = 0;
  for (const obs::ParsedEvent& ev :
       obs::read_journal(dir.path / "journal.jsonl")) {
    if (ev.type != "bug_budget_exhausted") continue;
    ++budget_events;
    EXPECT_EQ(ev.iter(), 0);
    EXPECT_EQ(ev.num("bugs"), 1);
  }
  EXPECT_EQ(budget_events, 1);
}

// ---------------------------------------------------------------------------
// Per-test timeout retry under injected message loss.
// ---------------------------------------------------------------------------

#define PING_SITES(X) X(x_low, "ping")
COMPI_DEFINE_TARGET_SITES(PingSite, ping_table, PING_SITES)

/// One symbolic branch (so the focus path is never empty), then a p2p
/// message rank 1 -> rank 0 that injected drops turn into a hang.
TargetInfo ping_target() {
  TargetInfo info;
  info.name = "ping";
  info.table = &ping_table();
  info.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    const sym::SymInt x = ctx.input_int_capped("x", 10);
    if (targets::br(ctx, PingSite::x_low, x < sym::SymInt(5))) {
      // low half
    }
    if (world.raw_size() < 2) return;  // nothing to exchange solo
    if (world.raw_rank() == 1) {
      const std::vector<int> data{1};
      world.send(std::span<const int>(data), 0, 0);
    } else if (world.raw_rank() == 0) {
      std::vector<int> got(1);
      world.recv(std::span<int>(got), 1, 0);
    }
  };
  info.sloc = 10;
  return info;
}

TEST(Campaign, TimeoutsAreRetriedThenRememberedAsHangs) {
  CampaignOptions opts;
  opts.seed = 4;
  opts.iterations = 3;
  opts.initial_nprocs = 2;
  opts.initial_focus = 0;
  opts.max_procs = 2;
  opts.retry_max = 2;
  opts.confirm_bugs = false;
  opts.chaos.seed = 9;
  opts.chaos.drop_rate = 1.0;  // every retry re-rolls, but all drop
  opts.test_timeout = std::chrono::milliseconds(100);

  const CampaignResult result = Campaign(ping_target(), opts).run();
  // Iteration 0 burns retry_max retries, then the hang signature is known:
  // later iterations hitting the same hang must NOT retry it again.
  EXPECT_EQ(result.transient_retries, 2u);
  ASSERT_EQ(result.iterations.size(), 3u);
  EXPECT_EQ(result.iterations[0].outcome, rt::Outcome::kTimeout);
  ASSERT_FALSE(result.bugs.empty());
  EXPECT_EQ(result.bugs[0].outcome, rt::Outcome::kTimeout);
}

TEST(Campaign, ChaosCampaignTerminatesAndRecordsOutcomes) {
  // Light drop noise over the whole campaign: every iteration still ends
  // within its (possibly retried) timeout and the campaign completes.
  CampaignOptions opts;
  opts.seed = 6;
  opts.iterations = 10;
  opts.initial_nprocs = 2;
  opts.max_procs = 4;
  opts.retry_max = 2;
  opts.confirm_bugs = false;
  opts.chaos.seed = 13;
  opts.chaos.drop_rate = 0.05;
  opts.test_timeout = std::chrono::milliseconds(200);

  const CampaignResult result = Campaign(ping_target(), opts).run();
  EXPECT_EQ(result.iterations.size(), 10u);
  for (const IterationRecord& rec : result.iterations) {
    EXPECT_TRUE(rec.outcome == rt::Outcome::kOk ||
                rec.outcome == rt::Outcome::kTimeout);
  }
}

}  // namespace
}  // namespace compi
