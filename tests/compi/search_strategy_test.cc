#include "compi/search_strategy.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "compi/driver.h"

#include "solver/predicate.h"

namespace compi {
namespace {

using solver::make_ge_const;
using solver::make_le_const;

std::shared_ptr<const sym::Path> path_of(std::initializer_list<int> sites) {
  sym::Path p;
  int depth = 0;
  for (int s : sites) {
    p.append(s, true, make_ge_const(0, depth++));
  }
  return std::make_shared<const sym::Path>(std::move(p));
}

std::unique_ptr<SearchStrategy> make(SearchKind kind, std::size_t bound =
                                         static_cast<std::size_t>(-1)) {
  StrategyConfig cfg;
  cfg.kind = kind;
  cfg.bound = bound;
  cfg.seed = 5;
  return make_strategy(cfg);
}

TEST(BoundedDfs, NegatesDeepestFirst) {
  auto s = make(SearchKind::kBoundedDfs);
  s->observe(path_of({0, 1, 2}), std::nullopt);
  const auto c1 = s->next();
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->depth, 2u);
  EXPECT_EQ(c1->path->size(), 3u);
  // The constraint to satisfy is the negation of the deepest.
  EXPECT_EQ(c1->negated(), make_ge_const(0, 2).negated());
  const auto c2 = s->next();
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->depth, 1u);
}

TEST(BoundedDfs, ExhaustsThenReturnsNothing) {
  auto s = make(SearchKind::kBoundedDfs);
  s->observe(path_of({0, 1}), std::nullopt);
  EXPECT_TRUE(s->next().has_value());
  EXPECT_TRUE(s->next().has_value());
  EXPECT_FALSE(s->next().has_value());
}

TEST(BoundedDfs, BoundSkipsDeepBranches) {
  auto s = make(SearchKind::kBoundedDfs, /*bound=*/2);
  s->observe(path_of({0, 1, 2, 3, 4}), std::nullopt);
  const auto c = s->next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->depth, 1u) << "bound=2 allows depths 0 and 1 only";
}

TEST(BoundedDfs, ChildFrameExploresOnlyBeyondFlip) {
  auto s = make(SearchKind::kBoundedDfs);
  s->observe(path_of({0, 1, 2}), std::nullopt);
  const auto c = s->next();  // depth 2
  ASSERT_TRUE(c.has_value());
  s->accepted(*c);
  // Child run: same prefix, flipped at depth 2, new suffix.
  sym::Path child;
  child.append(0, true, make_ge_const(0, 0));
  child.append(1, true, make_ge_const(0, 1));
  child.append(2, false, make_ge_const(0, 2).negated());
  child.append(5, true, make_ge_const(0, 3));
  s->observe(std::make_shared<const sym::Path>(std::move(child)), c->depth);
  // Deepest pending is now the child's new suffix (depth 3).
  const auto c2 = s->next();
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->depth, 3u);
  // After the child subtree, the parent's remaining depths (1, then 0).
  const auto c3 = s->next();
  ASSERT_TRUE(c3.has_value());
  EXPECT_EQ(c3->depth, 1u);
}

TEST(BoundedDfs, PredictionFailureSkipsSubtree) {
  auto s = make(SearchKind::kBoundedDfs);
  s->observe(path_of({0, 1, 2}), std::nullopt);
  const auto c = s->next();  // depth 2
  ASSERT_TRUE(c.has_value());
  s->accepted(*c);
  // The run diverged somewhere else entirely: prefix mismatch.
  s->observe(path_of({7, 8, 9}), c->depth);
  EXPECT_EQ(s->stats().prediction_failures, 1u);
  // DFS continues with the parent's siblings.
  const auto c2 = s->next();
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->depth, 1u);
}

TEST(BoundedDfs, RestartRootsNewTree) {
  auto s = make(SearchKind::kBoundedDfs);
  s->observe(path_of({0, 1}), std::nullopt);
  (void)s->next();
  s->observe(path_of({3, 4, 5}), std::nullopt);  // restart
  const auto c = s->next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->depth, 2u) << "fresh root from the restart path";
}

TEST(RandomBranch, ProposesWithinPath) {
  auto s = make(SearchKind::kRandomBranch);
  s->observe(path_of({0, 1, 2, 3}), std::nullopt);
  for (int i = 0; i < 8; ++i) {
    const auto c = s->next();
    ASSERT_TRUE(c.has_value());
    EXPECT_LT(c->depth, 4u);
    EXPECT_LT(c->depth, c->path->size());
  }
}

TEST(RandomBranch, GivesUpAfterManyRejections) {
  auto s = make(SearchKind::kRandomBranch);
  s->observe(path_of({0}), std::nullopt);
  int proposals = 0;
  while (s->next().has_value()) ++proposals;
  EXPECT_GT(proposals, 0);
  EXPECT_LE(proposals, 3);  // path-length-derived cutoff
}

TEST(RandomBranch, EmptyPathYieldsNothing) {
  auto s = make(SearchKind::kRandomBranch);
  s->observe(std::make_shared<const sym::Path>(), std::nullopt);
  EXPECT_FALSE(s->next().has_value());
}

TEST(UniformRandom, ProposesWithinPath) {
  auto s = make(SearchKind::kUniformRandom);
  s->observe(path_of({0, 1, 2, 3, 4, 5}), std::nullopt);
  const auto c = s->next();
  ASSERT_TRUE(c.has_value());
  EXPECT_LT(c->depth, 6u);
}

TEST(Cfg, PrefersFlipOntoUncoveredBranch) {
  // Table: 3 sites in one function.
  rt::BranchTable table;
  table.add_site("f", "s0");
  table.add_site("f", "s1");
  table.add_site("f", "s2");
  table.finalize();
  CoverageTracker coverage(table);
  // Mark everything covered except s1's false arm.
  rt::CoverageBitmap bm(6);
  for (int s = 0; s < 3; ++s) {
    bm.mark(sym::branch_id(s, true));
    if (s != 1) bm.mark(sym::branch_id(s, false));
  }
  coverage.merge(bm);

  StrategyConfig cfg;
  cfg.kind = SearchKind::kCfg;
  cfg.seed = 3;
  cfg.table = &table;
  cfg.coverage = &coverage;
  auto s = make_strategy(cfg);
  s->observe(path_of({0, 1, 2}), std::nullopt);
  const auto c = s->next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->depth, 1u) << "flipping depth 1 reaches the uncovered arm";
}

TEST(Generational, ExpandsEveryFlipOfARun) {
  auto s = make(SearchKind::kGenerational);
  s->observe(path_of({0, 1, 2}), std::nullopt);
  // All three depths are queued; each next() yields a distinct one.
  std::set<std::size_t> depths;
  for (int i = 0; i < 3; ++i) {
    const auto c = s->next();
    ASSERT_TRUE(c.has_value());
    depths.insert(c->depth);
  }
  EXPECT_EQ(depths, (std::set<std::size_t>{0, 1, 2}));
  EXPECT_FALSE(s->next().has_value());
}

TEST(Generational, ChildExpandsOnlyBeyondFlipDepth) {
  auto s = make(SearchKind::kGenerational);
  s->observe(path_of({0, 1}), std::nullopt);
  const auto c = s->next();
  ASSERT_TRUE(c.has_value());
  s->accepted(*c);
  // Child run that flipped at c->depth: only deeper constraints queue.
  s->observe(path_of({0, 1, 2, 3}), c->depth);
  std::size_t queued = 0;
  while (s->next().has_value()) ++queued;
  // Parent had 2 queued (1 consumed), child adds 4 - (depth+1).
  EXPECT_EQ(queued, 1 + (4 - (c->depth + 1)));
}

TEST(Generational, CoversChainInLinearBudget) {
  // On independent branches, generational search covers every arm with a
  // linear budget — the breadth-over-depth trade DFS cannot make.
  rt::BranchTable table;
  for (int i = 0; i < 10; ++i) table.add_site("chain", "b");
  table.finalize();
  TargetInfo info;
  info.name = "chain";
  info.table = &table;
  info.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    for (int i = 0; i < 10; ++i) {
      const sym::SymInt b =
          ctx.input_int_range("b" + std::to_string(i), 0, 100);
      (void)ctx.branch(static_cast<sym::SiteId>(i), b < sym::SymInt(50));
    }
    world.barrier();
  };
  CampaignOptions opts;
  opts.seed = 17;
  opts.iterations = 40;
  opts.initial_nprocs = 1;
  opts.search = SearchKind::kGenerational;
  const CampaignResult result = Campaign(info, opts).run();
  EXPECT_EQ(result.covered_branches, 20u);
}

TEST(Generational, CheckpointKeepsTheConstraintSetsOfItsViews) {
  // Queued views checkpoint as full constraint sets (prefix, then the
  // negation), and a restored queue proposes the same negations.
  auto s = make(SearchKind::kGenerational);
  s->observe(path_of({0, 1, 2, 3}), std::nullopt);
  std::ostringstream saved;
  s->save_state(saved);
  EXPECT_NE(saved.str().find("entries 4"), std::string::npos);

  auto restored = make(SearchKind::kGenerational);
  std::istringstream in(saved.str());
  ASSERT_TRUE(restored->load_state(in));
  std::ostringstream again;
  restored->save_state(again);
  EXPECT_EQ(again.str(), saved.str());
  for (int i = 0; i < 4; ++i) {
    const auto a = s->next();
    const auto b = restored->next();
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(a->depth, b->depth);
    EXPECT_EQ(a->target, b->target);
    EXPECT_EQ(a->negated(), b->negated());
    for (std::size_t k = 0; k < a->depth; ++k) {
      EXPECT_EQ((*a->path)[k].constraint, (*b->path)[k].constraint);
    }
  }
}

TEST(StrategyViews, EveryStrategySharesTheObservedPath) {
  // A candidate is a view: the path it negates is the very path the
  // strategy observed, never a copy of its prefix.
  rt::BranchTable table;
  for (int i = 0; i < 4; ++i) table.add_site("f", "s" + std::to_string(i));
  table.finalize();
  CoverageTracker coverage(table);
  for (SearchKind kind :
       {SearchKind::kDfs, SearchKind::kBoundedDfs, SearchKind::kRandomBranch,
        SearchKind::kUniformRandom, SearchKind::kCfg,
        SearchKind::kGenerational}) {
    StrategyConfig cfg;
    cfg.kind = kind;
    cfg.seed = 5;
    cfg.table = &table;
    cfg.coverage = &coverage;
    auto s = make_strategy(cfg);
    const auto observed = path_of({0, 1, 2, 3});
    s->observe(observed, std::nullopt);
    const auto c = s->next();
    ASSERT_TRUE(c.has_value()) << s->name();
    EXPECT_EQ(c->path.get(), observed.get()) << s->name();
    EXPECT_EQ(c->negated(), (*observed)[c->depth].constraint.negated())
        << s->name();
  }
}

TEST(StrategyNames, AreStable) {
  EXPECT_STREQ(make(SearchKind::kDfs)->name(), "DFS");
  EXPECT_STREQ(make(SearchKind::kBoundedDfs, 10)->name(), "BoundedDFS");
  EXPECT_STREQ(make(SearchKind::kRandomBranch)->name(), "RandomBranch");
  EXPECT_STREQ(make(SearchKind::kUniformRandom)->name(), "UniformRandom");
  EXPECT_STREQ(make(SearchKind::kGenerational)->name(), "Generational");
}

}  // namespace
}  // namespace compi
