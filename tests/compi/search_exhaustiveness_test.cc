// Property tests: systematic search must exhaust small branch spaces.
//
// A synthetic target with D independent symbolic branches spans a full
// binary tree of 2^D paths and 2*D branches; a campaign with a sufficient
// budget must cover every branch (DFS exhausts the tree), and a depth
// bound must cleanly truncate what gets explored.
#include <gtest/gtest.h>

#include "compi/driver.h"
#include "compi/target.h"
#include "targets/target_common.h"
#include "tests/solver/flat_solve.h"

namespace compi {
namespace {

/// Builds a target with `depth` chained symbolic branches b_i < 50, each
/// an independent marked input.  Every (site, direction) pair is reachable.
TargetInfo chain_target(int depth, const rt::BranchTable& table) {
  TargetInfo info;
  info.name = "chain";
  info.table = &table;
  info.program = [depth](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    for (int i = 0; i < depth; ++i) {
      const sym::SymInt b =
          ctx.input_int_range("b" + std::to_string(i), 0, 100);
      (void)ctx.branch(static_cast<sym::SiteId>(i), b < sym::SymInt(50));
    }
    world.barrier();
  };
  return info;
}

const rt::BranchTable& chain_table(int depth) {
  static std::map<int, rt::BranchTable> tables;
  auto [it, inserted] = tables.try_emplace(depth);
  if (inserted) {
    for (int i = 0; i < depth; ++i) {
      it->second.add_site("chain", "b" + std::to_string(i));
    }
    it->second.finalize();
  }
  return it->second;
}

class ChainExhaustivenessTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainExhaustivenessTest, DfsCoversEveryBranchGivenTreeBudget) {
  // DFS explores the execution TREE: with D independent branches that is
  // 2^D paths, and the *last* new branch (flipping b0) is only reached
  // near the end — exactly the path-explosion cost the paper contrasts
  // with branch coverage (§I-A).
  const int depth = GetParam();
  const rt::BranchTable& table = chain_table(depth);
  CampaignOptions opts;
  opts.seed = 13;
  opts.iterations = (1 << depth) + 2 * depth + 10;
  opts.initial_nprocs = 1;
  opts.search = SearchKind::kDfs;
  const CampaignResult result =
      Campaign(chain_target(depth, table), opts).run();
  EXPECT_EQ(result.covered_branches, static_cast<std::size_t>(2 * depth))
      << "every arm of every independent branch must be reached";
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainExhaustivenessTest,
                         ::testing::Values(1, 2, 4, 6, 8));

TEST(ChainCfg, CfgSearchCoversChainsInLinearBudget) {
  // The CFG strategy scores flips by distance-to-uncovered, so on the
  // independent chain it heads straight for uncovered arms and finishes in
  // O(depth) runs — the situation CFG search is designed for.
  const int depth = 10;
  const rt::BranchTable& table = chain_table(depth);
  CampaignOptions opts;
  opts.seed = 13;
  opts.iterations = 3 * depth + 10;
  opts.initial_nprocs = 1;
  opts.search = SearchKind::kCfg;
  const CampaignResult result =
      Campaign(chain_target(depth, table), opts).run();
  EXPECT_EQ(result.covered_branches, static_cast<std::size_t>(2 * depth));
}

TEST(ChainBound, DepthBoundTruncatesExploration) {
  // Budget ends before the bounded subtree is exhausted (which would
  // trigger a fresh-random-input restart that re-rolls the deep branches).
  const int depth = 12;
  const rt::BranchTable& table = chain_table(depth);
  CampaignOptions opts;
  opts.seed = 13;
  opts.iterations = 15;  // < 2^bound leaves
  opts.initial_nprocs = 1;
  opts.search = SearchKind::kBoundedDfs;
  opts.depth_bound = 4;
  opts.dfs_phase_iterations = 1;  // switch to the bounded phase immediately
  const CampaignResult result =
      Campaign(chain_target(depth, table), opts).run();
  // Branches above the bound keep the initial run's direction: only the
  // first `bound` sites can have both arms covered.
  EXPECT_LT(result.covered_branches, static_cast<std::size_t>(2 * depth))
      << "a tight bound must leave deep branches unexplored";
  EXPECT_GE(result.covered_branches, static_cast<std::size_t>(depth + 2))
      << "branches within the bound are explored";
}

// Incremental solving must return assignments satisfying the WHOLE set,
// not just the dependency slice it re-solved.
class IncrementalSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSoundnessTest, ValuesSatisfyAllConstraints) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> nvars_dist(2, 5);
  std::uniform_int_distribution<std::int64_t> value_dist(-30, 30);
  std::uniform_int_distribution<int> coeff_dist(-2, 2);

  const int nvars = nvars_dist(rng);
  solver::Assignment witness;
  for (solver::Var v = 0; v < nvars; ++v) witness[v] = value_dist(rng);

  // Constraints satisfied by the witness...
  std::vector<solver::Predicate> preds;
  for (int i = 0; i < 6; ++i) {
    solver::LinearExpr e;
    for (solver::Var v = 0; v < nvars; ++v) e.add_term(v, coeff_dist(rng));
    const std::int64_t at = e.evaluate([&](solver::Var v) {
      return witness.at(v);
    });
    e.add_constant(-at);
    preds.push_back({std::move(e), solver::CompareOp::kLe});  // holds: == 0
  }
  // ...plus a negated final constraint the witness VIOLATES.
  solver::LinearExpr last = solver::LinearExpr::variable(0);
  last.add_constant(-witness.at(0));
  preds.push_back({std::move(last), solver::CompareOp::kNeq});  // x0 != w0

  solver::DomainMap domains;
  for (solver::Var v = 0; v < nvars; ++v) domains[v] = {-100, 100};
  solver::Solver s;
  const solver::SolveResult r = solver::solve_flat(s, preds, domains, witness);
  if (!r.sat) return;  // UNSAT is acceptable; soundness is about SAT results
  for (const solver::Predicate& p : preds) {
    EXPECT_TRUE(p.holds([&](solver::Var v) { return r.values.at(v); }))
        << p.to_string();
  }
  // Stale values must be reported unchanged.
  for (const auto& [v, value] : r.values) {
    const bool changed =
        std::binary_search(r.changed.begin(), r.changed.end(), v);
    if (!changed && witness.count(v)) {
      EXPECT_EQ(value, witness.at(v)) << "unchanged var " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSoundnessTest,
                         ::testing::Range(100, 140));

}  // namespace
}  // namespace compi
