// The checkpoint dialect's predicate and path readers reject what a path
// cannot index: an unknown comparison and a variable outside the bound.
#include "symbolic/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

namespace compi::serial {
namespace {

bool reads_path(const std::string& text, std::size_t num_vars = kAnyVar) {
  std::istringstream in(text);
  sym::Path path;
  return read_path(in, path, num_vars);
}

TEST(Serialize, PathRoundTrips) {
  sym::Path path;
  path.append(0, true, solver::Predicate{solver::LinearExpr(-3), {}});
  solver::LinearExpr e(2);
  e.add_term(4, -1);
  path.append(7, false, solver::Predicate{e, solver::CompareOp::kLe});
  std::ostringstream out;
  write_path(out, path);
  std::istringstream in(out.str());
  sym::Path back;
  ASSERT_TRUE(read_path(in, back, 5));
  std::ostringstream again;
  write_path(again, back);
  EXPECT_EQ(again.str(), out.str());
  EXPECT_EQ(back.occurrences().var_bound(), 5u);
}

TEST(Serialize, NegativeVariableIsRejected) {
  // Var -1 would index the path's occurrence lists out of bounds.
  EXPECT_FALSE(reads_path("2\n0 1 0 0 1 3 1\n1 1 0 0 1 -1 1\n"));
  EXPECT_TRUE(reads_path("2\n0 1 0 0 1 3 1\n1 1 0 0 1 1 1\n"));
}

TEST(Serialize, VariableOutsideTheBoundIsRejected) {
  EXPECT_TRUE(reads_path("1\n0 1 0 0 1 3 1\n", 4));
  EXPECT_FALSE(reads_path("1\n0 1 0 0 1 4 1\n", 4));
  EXPECT_FALSE(reads_path("1\n0 1 0 0 1 2147483647 1\n", 4));
}

TEST(Serialize, UnknownComparisonIsRejected) {
  EXPECT_TRUE(reads_path("1\n0 1 5 0 1 3 1\n"));
  EXPECT_FALSE(reads_path("1\n0 1 6 0 1 3 1\n"));
  EXPECT_FALSE(reads_path("1\n0 1 -1 0 1 3 1\n"));
}

}  // namespace
}  // namespace compi::serial
