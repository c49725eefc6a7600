#include "solver/solver.h"
#include "tests/solver/flat_solve.h"

#include <gtest/gtest.h>

#include <random>

namespace compi::solver {
namespace {

bool all_hold(std::span<const Predicate> preds, const Assignment& a) {
  for (const Predicate& p : preds) {
    if (!p.holds([&](Var v) { return a.at(v); })) return false;
  }
  return true;
}

TEST(Solver, SolvesSimpleConjunction) {
  Solver s;
  std::vector<Predicate> preds{make_ge_const(0, 3), make_le_const(0, 3)};
  const auto a = s.solve(preds, {});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->at(0), 3);
}

TEST(Solver, ReportsUnsat) {
  Solver s;
  std::vector<Predicate> preds{make_ge_const(0, 10), make_le_const(0, 5)};
  EXPECT_FALSE(s.solve(preds, {}).has_value());
}

TEST(Solver, PrefersPreviousValues) {
  Solver s;
  std::vector<Predicate> preds{make_ge_const(0, 0), make_le_const(0, 100)};
  const auto a = s.solve(preds, {}, {{0, 37}});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->at(0), 37);
}

TEST(Solver, MultiVariableCoupled) {
  Solver s;
  // x0 == x1, x1 < x2, x2 <= 4, all >= 0
  std::vector<Predicate> preds{make_eq(0, 1), make_lt(1, 2),
                               make_le_const(2, 4), make_ge_const(0, 0),
                               make_ge_const(1, 0), make_ge_const(2, 0)};
  const auto a = s.solve(preds, {});
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(all_hold(preds, *a));
}

TEST(Solver, NeqWithPreferredConflict) {
  Solver s;
  std::vector<Predicate> preds{
      make_ge_const(0, 0), make_le_const(0, 10),
      Predicate{LinearExpr(0, 1, -5), CompareOp::kNeq}};  // x0 != 5
  const auto a = s.solve(preds, {}, {{0, 5}});
  ASSERT_TRUE(a.has_value());
  EXPECT_NE(a->at(0), 5);
  EXPECT_TRUE(all_hold(preds, *a));
}

TEST(Solver, HonorsDomains) {
  Solver s;
  std::vector<Predicate> preds{make_ge_const(0, 0)};
  DomainMap domains{{0, {2, 4}}};
  const auto a = s.solve(preds, domains);
  ASSERT_TRUE(a.has_value());
  EXPECT_GE(a->at(0), 2);
  EXPECT_LE(a->at(0), 4);
}

TEST(DependencySlice, IsolatesIndependentConstraints) {
  // c0: x0 <= 5; c1: x1 <= 5; c2: x1 >= 2  — seed c2 touches only x1.
  const PredicateStore path({make_le_const(0, 5), make_le_const(1, 5)});
  const Slice slice = Solver::dependency_slice(path, path.size(),
                                               PredicateStore{},
                                               make_ge_const(1, 2));
  EXPECT_EQ(slice.path, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(slice.vars, (std::vector<Var>{1}));
}

TEST(DependencySlice, FollowsTransitiveSharing) {
  // c0: x0 - x1 = 0; c1: x1 - x2 = 0; c2: x3 <= 1; seed c3: x2 >= 0.
  const PredicateStore path(
      {make_eq(0, 1), make_eq(1, 2), make_le_const(3, 1)});
  const Slice slice = Solver::dependency_slice(path, path.size(),
                                               PredicateStore{},
                                               make_ge_const(2, 0));
  EXPECT_EQ(slice.path, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(slice.size(), 3u);
}

TEST(SolveIncremental, KeepsStaleValuesAndReportsChanged) {
  Solver s;
  // Previous inputs satisfied {x0 <= 5, x1 <= 5}; now negate to x1 > 5.
  std::vector<Predicate> preds{make_le_const(0, 5),
                               make_le_const(1, 5).negated()};
  const Assignment prev{{0, 3}, {1, 4}};
  const SolveResult r = solve_flat(s, preds, {}, prev);
  ASSERT_TRUE(r.sat);
  EXPECT_EQ(r.values.at(0), 3) << "untouched variable keeps stale value";
  EXPECT_GT(r.values.at(1), 5);
  EXPECT_EQ(r.changed, (std::vector<Var>{1}));
}

TEST(SolveIncremental, UnsatLeavesNoResult) {
  Solver s;
  std::vector<Predicate> preds{make_ge_const(0, 3), make_le_const(0, 3),
                               make_eq_const(0, 4)};  // negated seed: x0 == 4
  const SolveResult r = solve_flat(s, preds, {}, {{0, 3}});
  EXPECT_FALSE(r.sat);
}

TEST(SolveIncremental, ChangedIsSortedAndMinimal) {
  Solver s;
  std::vector<Predicate> preds{make_eq(0, 1),          // x0 == x1
                               make_ge_const(2, 0),    // independent
                               make_eq_const(1, 9)};   // seed: x1 == 9
  const Assignment prev{{0, 2}, {1, 2}, {2, 7}};
  const SolveResult r = solve_flat(s, preds, {}, prev);
  ASSERT_TRUE(r.sat);
  EXPECT_EQ(r.values.at(0), 9);
  EXPECT_EQ(r.values.at(1), 9);
  EXPECT_EQ(r.values.at(2), 7);
  EXPECT_EQ(r.changed, (std::vector<Var>{0, 1}));
}

// ---------------------------------------------------------------------------
// Property test: on randomly generated *satisfiable* systems (built around a
// known witness), the solver must find some satisfying assignment; on
// random systems, whatever it returns must satisfy every predicate.
// ---------------------------------------------------------------------------
class SolverPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverPropertyTest, SoundOnRandomSatisfiableSystems) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> nvars_dist(1, 4);
  std::uniform_int_distribution<int> npreds_dist(1, 8);
  std::uniform_int_distribution<std::int64_t> value_dist(-50, 50);
  std::uniform_int_distribution<int> coeff_dist(-3, 3);
  std::uniform_int_distribution<int> op_dist(0, 5);

  Solver s;
  const int nvars = nvars_dist(rng);
  // Known witness.
  Assignment witness;
  for (Var v = 0; v < nvars; ++v) witness[v] = value_dist(rng);

  std::vector<Predicate> preds;
  const int npreds = npreds_dist(rng);
  for (int i = 0; i < npreds; ++i) {
    LinearExpr e;
    for (Var v = 0; v < nvars; ++v) e.add_term(v, coeff_dist(rng));
    const std::int64_t at_witness =
        e.evaluate([&](Var v) { return witness.at(v); });
    // Choose an op consistent with the witness so the system stays SAT.
    CompareOp op;
    switch (op_dist(rng)) {
      case 0: op = CompareOp::kLe; e.add_constant(-at_witness); break;
      case 1: op = CompareOp::kGe; e.add_constant(-at_witness); break;
      case 2: op = CompareOp::kEq; e.add_constant(-at_witness); break;
      case 3: op = CompareOp::kLt; e.add_constant(-at_witness - 1); break;
      case 4: op = CompareOp::kGt; e.add_constant(-at_witness + 1); break;
      default:
        op = CompareOp::kNeq;
        e.add_constant(-at_witness - 1);
        break;
    }
    preds.push_back({std::move(e), op});
  }

  DomainMap domains;
  for (Var v = 0; v < nvars; ++v) domains[v] = {-200, 200};
  const auto a = s.solve(preds, domains);
  ASSERT_TRUE(a.has_value()) << "known-satisfiable system reported UNSAT";
  EXPECT_TRUE(all_hold(preds, *a));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SolverPropertyTest,
                         ::testing::Range(1, 60));

}  // namespace
}  // namespace compi::solver
