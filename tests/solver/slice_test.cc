// The dependency slice over a constraint store: its cost is counted in
// predicates touched, not wall time, and pinned at the slice's edges
// whatever the path's length; a seeded property test checks it against a
// BFS oracle over the copied prefix (the pre-store algorithm, kept here
// only).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <set>
#include <vector>

#include "solver/solver.h"
#include "solver/store.h"
#include "symbolic/path.h"

namespace compi::solver {
namespace {

/// What the slice BFS should read: the negation, then each slice predicate
/// once per variable it has.
std::size_t slice_edges(const sym::Path& path, const ConstraintStore& side,
                        const Slice& slice) {
  std::size_t n = 1;
  for (std::uint32_t i : slice.path) n += path[i].constraint.expr.num_terms();
  for (std::uint32_t i : slice.side) {
    n += side.predicate(i).expr.num_terms();
  }
  return n;
}

constexpr std::size_t kLongPath = 2048;

TEST(SliceCost, IndependentNegationOnALongPathTouchesAFew) {
  // 2048 entries, each over its own variable; the negated entry shares
  // its variable with nothing below it.
  sym::Path path;
  for (Var v = 0; v < static_cast<Var>(kLongPath); ++v) {
    path.append(v, true, make_le_const(v, 50));
  }
  const std::size_t depth = kLongPath - 1;
  const Predicate negated = path[depth].constraint.negated();
  const Slice slice =
      Solver::dependency_slice(path, depth, PredicateStore{}, negated);
  EXPECT_LE(slice.touched, 4u);
  EXPECT_EQ(slice.size(), 1u);

  Assignment prev;
  for (Var v = 0; v < static_cast<Var>(kLongPath); ++v) prev[v] = 0;
  const SolveResult r = Solver().solve_incremental(
      path, depth, PredicateStore{}, negated, {}, prev);
  ASSERT_TRUE(r.sat);
  EXPECT_EQ(r.slice_size, 1u);
  EXPECT_EQ(r.changed, (std::vector<Var>{static_cast<Var>(depth)}));
}

TEST(SliceCost, CoupledChainTouchesExactlyTheSlice) {
  // Entries 0..k-1 chain x0 < x1 < ... < xk; the other 2048 - k entries
  // are independent.  Negating "xk <= 100" pulls in exactly the chain.
  constexpr Var kChain = 600;
  sym::Path path;
  for (Var v = 0; v < kChain; ++v) path.append(0, true, make_lt(v, v + 1));
  for (Var v = kChain + 1; path.size() < kLongPath; ++v) {
    path.append(1, true, make_ge_const(v, 0));
  }
  const Predicate negated = make_le_const(kChain, 100).negated();
  const Slice slice =
      Solver::dependency_slice(path, path.size(), PredicateStore{}, negated);
  ASSERT_EQ(slice.path.size(), static_cast<std::size_t>(kChain));
  EXPECT_EQ(slice.touched, slice_edges(path, PredicateStore{}, slice));
  EXPECT_EQ(slice.vars.size(), static_cast<std::size_t>(kChain) + 1);

  // Below a shallower depth the same negation reads only the entries
  // below it: the rest of the chain is out of reach.
  const Slice shallow = Solver::dependency_slice(path, 10, PredicateStore{},
                                                 make_ge_const(10, 3));
  EXPECT_EQ(shallow.path.size(), 10u);
  EXPECT_EQ(shallow.touched, slice_edges(path, PredicateStore{}, shallow));
}

TEST(SliceCost, SidePredicatesJoinTheSliceThroughSharedVariables) {
  sym::Path path;
  path.append(0, true, make_le_const(0, 5));   // x0: reached via side
  path.append(1, true, make_le_const(2, 5));   // x2: unrelated
  PredicateStore side;
  side.push_back(make_eq(0, 1));               // x0 == x1
  side.push_back(make_eq(3, 4));               // unrelated
  const Slice slice =
      Solver::dependency_slice(path, path.size(), side, make_ge_const(1, 1));
  EXPECT_EQ(slice.path, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(slice.side, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(slice.vars, (std::vector<Var>{0, 1}));
}

// ---- the oracle: BFS over the copied constraint list ----
// preds = path[0, depth) ++ side ++ [negated]; returns the indices of the
// seed's (last element's) slice, ascending.
std::vector<std::size_t> oracle_slice(const std::vector<Predicate>& preds) {
  const std::size_t seed = preds.size() - 1;
  std::vector<std::vector<Var>> vars_of(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    preds[i].expr.collect_vars(vars_of[i]);
  }
  std::vector<bool> in(preds.size(), false);
  std::set<Var> done;
  std::queue<std::size_t> work;
  work.push(seed);
  in[seed] = true;
  while (!work.empty()) {
    const std::size_t i = work.front();
    work.pop();
    for (Var v : vars_of[i]) {
      if (!done.insert(v).second) continue;
      for (std::size_t j = 0; j < preds.size(); ++j) {
        if (!in[j] && std::binary_search(vars_of[j].begin(),
                                         vars_of[j].end(), v)) {
          in[j] = true;
          work.push(j);
        }
      }
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (in[i]) out.push_back(i);
  }
  return out;
}

Predicate random_predicate(std::mt19937_64& rng, int nvars) {
  std::uniform_int_distribution<int> nterms(0, 3);
  std::uniform_int_distribution<Var> var(0, nvars - 1);
  std::uniform_int_distribution<std::int64_t> coeff(-3, 3);
  std::uniform_int_distribution<int> op(0, 5);
  LinearExpr e(coeff(rng));
  for (int k = nterms(rng); k > 0; --k) e.add_term(var(rng), coeff(rng));
  return {e, static_cast<CompareOp>(op(rng))};
}

TEST(SliceProperty, MatchesTheBfsOracleAtEveryDepth) {
  constexpr int kCases = 60;
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t case_seed = 0x51ce0000ULL + static_cast<unsigned>(c);
    std::mt19937_64 rng(case_seed);
    const int nvars = 2 + static_cast<int>(rng() % 40);
    const std::size_t len = 1 + rng() % 80;
    sym::Path path;
    for (std::size_t i = 0; i < len; ++i) {
      path.append(static_cast<sym::SiteId>(i), (rng() & 1) != 0,
                  random_predicate(rng, nvars));
    }
    PredicateStore side;
    for (std::size_t i = rng() % 5; i > 0; --i) {
      side.push_back(random_predicate(rng, nvars));
    }
    for (std::size_t depth = 0; depth < len; ++depth) {
      const Predicate negated = path[depth].constraint.negated();
      std::vector<Predicate> flat;
      for (std::size_t i = 0; i < depth; ++i) {
        flat.push_back(path[i].constraint);
      }
      for (std::size_t i = 0; i < side.size(); ++i) {
        flat.push_back(side.predicate(i));
      }
      flat.push_back(negated);
      const std::vector<std::size_t> want = oracle_slice(flat);

      const Slice got = Solver::dependency_slice(path, depth, side, negated);
      std::vector<std::size_t> have(got.path.begin(), got.path.end());
      for (std::uint32_t i : got.side) have.push_back(depth + i);
      have.push_back(flat.size() - 1);
      ASSERT_EQ(have, want) << "case_seed=" << case_seed << " depth=" << depth;
      EXPECT_EQ(got.touched, slice_edges(path, side, got))
          << "case_seed=" << case_seed << " depth=" << depth;

      std::vector<Var> vars;
      for (std::size_t i : want) flat[i].expr.collect_vars(vars);
      EXPECT_EQ(got.vars, vars)
          << "case_seed=" << case_seed << " depth=" << depth;
    }
  }
}

}  // namespace
}  // namespace compi::solver
