// Edge cases for the solver: overflow-adjacent arithmetic, budget
// exhaustion, degenerate systems, and large-coefficient propagation.
#include <gtest/gtest.h>

#include "solver/solver.h"

namespace compi::solver {
namespace {

TEST(SolverEdge, EmptyConstraintSetIsTriviallySat) {
  Solver s;
  const auto a = s.solve({}, {});
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->empty());
}

TEST(SolverEdge, EmptyIncrementalKeepsPrevious) {
  // Nothing to re-solve: an empty path and a ground negation that holds.
  Solver s;
  const SolveResult r = s.solve_incremental(
      PredicateStore{}, 0, PredicateStore{},
      {LinearExpr(0), CompareOp::kEq}, {}, {{0, 42}});
  EXPECT_TRUE(r.sat);
  EXPECT_EQ(r.values.at(0), 42);
  EXPECT_TRUE(r.changed.empty());
}

TEST(SolverEdge, ContradictoryEqualitiesUnsat) {
  Solver s;
  std::vector<Predicate> preds{make_eq_const(0, 3), make_eq_const(0, 4)};
  EXPECT_FALSE(s.solve(preds, {}).has_value());
}

TEST(SolverEdge, ChainOfEqualitiesPropagates) {
  Solver s;
  std::vector<Predicate> preds;
  constexpr int kChain = 30;
  for (Var v = 0; v + 1 < kChain; ++v) preds.push_back(make_eq(v, v + 1));
  preds.push_back(make_eq_const(kChain - 1, 7));
  const auto a = s.solve(preds, {});
  ASSERT_TRUE(a.has_value());
  for (Var v = 0; v < kChain; ++v) EXPECT_EQ(a->at(v), 7) << v;
}

TEST(SolverEdge, LargeCoefficientsDoNotOverflow) {
  Solver s;
  // 1000000 * x0 <= 5  with x0 in int32 domain: x0 <= 0.
  std::vector<Predicate> preds{
      {LinearExpr(0, 1'000'000, -5), CompareOp::kLe},
      make_ge_const(0, -3)};
  const auto a = s.solve(preds, {});
  ASSERT_TRUE(a.has_value());
  EXPECT_LE(a->at(0), 0);
  EXPECT_GE(a->at(0), -3);
}

TEST(SolverEdge, SearchBudgetExhaustionReportsUnsolved) {
  // A system propagation cannot crack and the budget cannot search:
  // x0 + x1 == huge odd combos over a big domain with a tiny node budget.
  Solver s(SolverOptions{.max_search_nodes = 1, .exhaustive_width = 2});
  LinearExpr e = LinearExpr::variable(0);
  e.add_term(1, 7);
  e.add_constant(-123457);
  LinearExpr e2 = LinearExpr::variable(0);
  e2.add_term(1, -13);
  e2.add_constant(-17);
  std::vector<Predicate> preds{{e, CompareOp::kEq}, {e2, CompareOp::kGe},
                               {LinearExpr(0, 3, -1), CompareOp::kNeq}};
  // Whatever it returns must be honest: either nullopt or a real model.
  const auto a = s.solve(preds, {});
  if (a) {
    for (const Predicate& p : preds) {
      EXPECT_TRUE(p.holds([&](Var v) { return a->at(v); }));
    }
  }
}

TEST(SolverEdge, StrictInequalityOverIntegersIsTight) {
  Solver s;
  std::vector<Predicate> preds{make_lt_const(0, 5), make_ge_const(0, 4)};
  const auto a = s.solve(preds, {});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->at(0), 4);
}

TEST(SolverEdge, NeqAgainstWholeSmallDomainUnsat) {
  Solver s;
  std::vector<Predicate> preds{
      {LinearExpr(0, 1, 0), CompareOp::kNeq},   // x != 0
      {LinearExpr(0, 1, -1), CompareOp::kNeq},  // x != 1
  };
  DomainMap domains{{0, {0, 1}}};
  EXPECT_FALSE(s.solve(preds, domains).has_value());
}

TEST(SolverEdge, PreferOutsideDomainIsIgnored) {
  Solver s;
  std::vector<Predicate> preds{make_ge_const(0, 0)};
  DomainMap domains{{0, {5, 9}}};
  const auto a = s.solve(preds, domains, {{0, 100}});
  ASSERT_TRUE(a.has_value());
  EXPECT_GE(a->at(0), 5);
  EXPECT_LE(a->at(0), 9);
}

TEST(SolverEdge, ManyIndependentVariablesScale) {
  Solver s;
  std::vector<Predicate> preds;
  constexpr int kN = 300;
  for (Var v = 0; v < kN; ++v) {
    preds.push_back(make_ge_const(v, v));
    preds.push_back(make_le_const(v, v + 2));
  }
  const auto a = s.solve(preds, {});
  ASSERT_TRUE(a.has_value());
  for (Var v = 0; v < kN; ++v) {
    EXPECT_GE(a->at(v), v);
    EXPECT_LE(a->at(v), v + 2);
  }
}

TEST(SolverEdge, IncrementalSliceStaysSmallOnIndependentSystem) {
  // Sanity on the dependency partition itself: with 1000 independent
  // constraints, the slice of the last one has exactly one element.
  PredicateStore path;
  for (Var v = 0; v < 999; ++v) path.push_back(make_le_const(v, 10));
  const Slice slice = Solver::dependency_slice(path, path.size(),
                                               PredicateStore{},
                                               make_le_const(999, 10));
  EXPECT_EQ(slice.size(), 1u);
  EXPECT_TRUE(slice.path.empty());
}

}  // namespace
}  // namespace compi::solver
