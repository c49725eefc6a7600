#include "symbolic/path.h"

#include "solver/solver.h"

#include <gtest/gtest.h>

#include "solver/predicate.h"

namespace compi::sym {
namespace {

using solver::make_ge_const;
using solver::make_le_const;

TEST(BranchId, RoundTrip) {
  for (SiteId s : {0, 1, 7, 100}) {
    for (bool taken : {false, true}) {
      const BranchId b = branch_id(s, taken);
      EXPECT_EQ(site_of(b), s);
      EXPECT_EQ(direction_of(b), taken);
    }
  }
}

Path make_path() {
  Path p;
  p.append(0, true, make_ge_const(0, 1));   // x0 >= 1
  p.append(1, false, make_le_const(0, 9));  // x0 <= 9
  p.append(2, true, make_ge_const(1, 5));   // x1 >= 5
  return p;
}

TEST(Path, AppendAndAccess) {
  const Path p = make_path();
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p[1].site, 1);
  EXPECT_FALSE(p[1].taken);
}

TEST(Path, SliceAtDepthKeepsPrefixAndNegation) {
  // Negating entry 1 (x0 <= 9) keeps entry 0 (x0 >= 1, same variable) and
  // never reads entry 2, which lies past the depth.
  const Path p = make_path();
  const solver::Slice slice = solver::Solver::dependency_slice(
      p, 1, solver::PredicateStore{}, p[1].constraint.negated());
  EXPECT_EQ(slice.path, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice.touched, 2u) << "the negation and entry 0, once each";
}

TEST(Path, SliceAtDepthZeroIsTheNegationAlone) {
  const Path p = make_path();
  const solver::Slice slice = solver::Solver::dependency_slice(
      p, 0, solver::PredicateStore{}, p[0].constraint.negated());
  EXPECT_TRUE(slice.path.empty());
  EXPECT_EQ(slice.size(), 1u);
}

TEST(Path, OccurrenceListsIndexEveryEntry) {
  const Path p = make_path();
  const std::span<const std::uint32_t> x0 = p.occurrences().of(0);
  const std::span<const std::uint32_t> x1 = p.occurrences().of(1);
  EXPECT_EQ(std::vector<std::uint32_t>(x0.begin(), x0.end()),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(std::vector<std::uint32_t>(x1.begin(), x1.end()),
            (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(p.occurrences().of(7).empty());
  EXPECT_EQ(p.predicate(2), make_ge_const(1, 5));
}

TEST(Path, DivergesAsPredictedTrueCase) {
  const Path parent = make_path();
  Path child;
  child.append(0, true, make_ge_const(0, 1));
  child.append(1, true, make_le_const(0, 9).negated());  // flipped at 1
  EXPECT_TRUE(parent.diverges_as_predicted(child, 1));
}

TEST(Path, DivergesAsPredictedFailsOnPrefixMismatch) {
  const Path parent = make_path();
  Path child;
  child.append(0, false, make_ge_const(0, 1).negated());  // prefix differs
  child.append(1, true, make_le_const(0, 9).negated());
  EXPECT_FALSE(parent.diverges_as_predicted(child, 1));
}

TEST(Path, DivergesAsPredictedFailsWithoutFlip) {
  const Path parent = make_path();
  const Path same = make_path();  // same direction at depth 1
  EXPECT_FALSE(parent.diverges_as_predicted(same, 1));
}

TEST(Path, DivergesAsPredictedFailsOnShortPath) {
  const Path parent = make_path();
  Path child;
  child.append(0, true, make_ge_const(0, 1));
  EXPECT_FALSE(parent.diverges_as_predicted(child, 2));
}

TEST(Path, ClearEmptiesEverything) {
  Path p = make_path();
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.occurrences().of(0).empty());
}

}  // namespace
}  // namespace compi::sym
