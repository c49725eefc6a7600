// Property-based solver validation (randomized, brute-force cross-checked).
//
// ~1000 random linear-predicate systems over small bounded domains, each
// checked against exhaustive enumeration: the solver must agree on
// SAT/UNSAT, and every SAT model must actually satisfy the system inside
// its domains.  The same harness then asserts the memoization-cache
// equivalence contract from solver/cache.h: cache-off, cold-cache, and
// warm-cache (hit) calls must return bit-identical SolveResults — the hit
// merely skips the search (nodes_searched == 0, cache_hit == true).
//
// Reproducibility: the base seed comes from COMPI_PROPERTY_SEED when set.
// Every failing case appends its per-case seed to property_seeds.txt in
// the working directory (uploaded as a CI artifact on failure), and re-run
// with COMPI_PROPERTY_SEED=<that value> generates exactly that case first.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <random>
#include <vector>

#include "solver/cache.h"
#include "solver/solver.h"
#include "tests/solver/flat_solve.h"

namespace compi::solver {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("COMPI_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedf00dULL;
}

void log_failing_seed(std::uint64_t case_seed) {
  std::ofstream out("property_seeds.txt", std::ios::app);
  out << case_seed << '\n';
}

struct RandomSystem {
  std::vector<Predicate> preds;
  DomainMap domains;
  std::vector<Var> vars;
};

/// A small random conjunction: 2-4 variables with domains of width <= 8,
/// 1-5 predicates of 1-3 terms each.  The search space stays enumerable
/// (<= 9^4 points) so brute force is exact and fast.
RandomSystem make_system(std::mt19937_64& rng) {
  RandomSystem sys;
  std::uniform_int_distribution<int> nvars_dist(2, 4);
  std::uniform_int_distribution<int> npreds_dist(1, 5);
  std::uniform_int_distribution<std::int64_t> lo_dist(-5, 5);
  std::uniform_int_distribution<std::int64_t> width_dist(0, 8);
  std::uniform_int_distribution<std::int64_t> coeff_dist(-3, 3);
  std::uniform_int_distribution<std::int64_t> const_dist(-10, 10);
  std::uniform_int_distribution<int> op_dist(0, 5);

  const int nvars = nvars_dist(rng);
  for (Var v = 0; v < nvars; ++v) {
    const std::int64_t lo = lo_dist(rng);
    sys.domains[v] = Interval{lo, lo + width_dist(rng)};
    sys.vars.push_back(v);
  }
  const int npreds = npreds_dist(rng);
  for (int i = 0; i < npreds; ++i) {
    Predicate p;
    p.op = static_cast<CompareOp>(op_dist(rng));
    std::uniform_int_distribution<int> nterms_dist(1, nvars > 3 ? 3 : nvars);
    const int nterms = nterms_dist(rng);
    for (int t = 0; t < nterms; ++t) {
      std::int64_t coeff = coeff_dist(rng);
      if (coeff == 0) coeff = 1;
      p.expr.add_term(static_cast<Var>(
                          std::uniform_int_distribution<int>(
                              0, nvars - 1)(rng)),
                      coeff);
    }
    p.expr.add_constant(const_dist(rng));
    // Term cancellation can empty the expression; keep it as a ground
    // predicate anyway (the solver must handle those too).
    sys.preds.push_back(std::move(p));
  }
  return sys;
}

/// Exhaustive enumeration over the (small) domain product.
bool brute_force_sat(const RandomSystem& sys) {
  std::vector<std::int64_t> point(sys.vars.size());
  const auto holds_all = [&] {
    for (const Predicate& p : sys.preds) {
      if (!p.holds([&](Var v) { return point[static_cast<size_t>(v)]; })) {
        return false;
      }
    }
    return true;
  };
  // Odometer over the domains.
  for (std::size_t i = 0; i < sys.vars.size(); ++i) {
    point[i] = sys.domains.at(sys.vars[i]).lo;
  }
  for (;;) {
    if (holds_all()) return true;
    std::size_t i = 0;
    for (; i < sys.vars.size(); ++i) {
      const Interval dom = sys.domains.at(sys.vars[i]);
      if (point[i] < dom.hi) {
        ++point[i];
        break;
      }
      point[i] = dom.lo;
    }
    if (i == sys.vars.size()) return false;
  }
}

constexpr int kCases = 1000;

TEST(SolverProperty, AgreesWithBruteForceEnumeration) {
  const std::uint64_t seed = base_seed();
  Solver the_solver;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(i);
    std::mt19937_64 rng(case_seed);
    const RandomSystem sys = make_system(rng);

    const bool expected = brute_force_sat(sys);
    bool exhausted = false;
    const std::optional<Assignment> got =
        the_solver.solve(sys.preds, sys.domains, {}, &exhausted);
    ASSERT_FALSE(exhausted) << "tiny system tripped the node budget, "
                               "case_seed=" << case_seed;
    if (got.has_value() != expected) {
      log_failing_seed(case_seed);
      FAIL() << "solver says " << (got ? "SAT" : "UNSAT")
             << ", brute force says " << (expected ? "SAT" : "UNSAT")
             << ", case_seed=" << case_seed;
    }
    if (got) {
      // The model must satisfy every predicate inside its domain.
      for (const auto& [v, value] : *got) {
        const Interval dom = domain_of(sys.domains, v);
        if (value < dom.lo || value > dom.hi) {
          log_failing_seed(case_seed);
          FAIL() << "model value " << value << " outside domain of var "
                 << v << ", case_seed=" << case_seed;
        }
      }
      for (const Predicate& p : sys.preds) {
        if (!p.holds([&](Var v) { return got->at(v); })) {
          log_failing_seed(case_seed);
          FAIL() << "model violates " << p.to_string()
                 << ", case_seed=" << case_seed;
        }
      }
    }
  }
}

/// A random "previous" assignment inside the domains: exercises the
/// prefer-value search order, which the cache key must capture.
Assignment random_previous(const RandomSystem& sys, std::mt19937_64& rng) {
  Assignment prev;
  for (Var v : sys.vars) {
    if (std::uniform_int_distribution<int>(0, 2)(rng) == 0) continue;
    const Interval dom = sys.domains.at(v);
    prev[v] = std::uniform_int_distribution<std::int64_t>(dom.lo,
                                                          dom.hi)(rng);
  }
  return prev;
}

void expect_same_result(const SolveResult& a, const SolveResult& b,
                        std::uint64_t case_seed, const char* what) {
  EXPECT_EQ(a.sat, b.sat) << what << ", case_seed=" << case_seed;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted)
      << what << ", case_seed=" << case_seed;
  EXPECT_EQ(a.changed, b.changed) << what << ", case_seed=" << case_seed;
  EXPECT_EQ(a.values.size(), b.values.size())
      << what << ", case_seed=" << case_seed;
  for (const auto& [v, value] : a.values) {
    auto it = b.values.find(v);
    ASSERT_NE(it, b.values.end())
        << what << " missing var " << v << ", case_seed=" << case_seed;
    EXPECT_EQ(value, it->second)
        << what << " var " << v << ", case_seed=" << case_seed;
  }
}

TEST(SolverProperty, CacheOnAndOffReturnIdenticalResults) {
  const std::uint64_t seed = base_seed() ^ 0xcac4e000ULL;
  Solver the_solver;
  SolveCache cache(256);
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(i);
    std::mt19937_64 rng(case_seed);
    const RandomSystem sys = make_system(rng);
    const Assignment prev = random_previous(sys, rng);

    const SolveResult plain =
        solve_flat(the_solver, sys.preds, sys.domains, prev, nullptr);
    const SolveResult cold =
        solve_flat(the_solver, sys.preds, sys.domains, prev, &cache);
    const SolveResult warm =
        solve_flat(the_solver, sys.preds, sys.domains, prev, &cache);

    if (testing::Test::HasFailure()) break;
    expect_same_result(plain, cold, case_seed, "cache-off vs cold");
    expect_same_result(plain, warm, case_seed, "cache-off vs warm");
    // Definitive answers must come back as hits that skipped the search.
    // (No cold-call miss assertion: two cases can normalize to the same
    // key, in which case the "cold" call hitting is correct behaviour.)
    if (!plain.budget_exhausted) {
      EXPECT_TRUE(warm.cache_hit) << "case_seed=" << case_seed;
      EXPECT_EQ(warm.nodes_searched, 0) << "case_seed=" << case_seed;
    }
    if (testing::Test::HasFailure()) {
      log_failing_seed(case_seed);
      break;
    }
  }
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.misses(), 0);
}

TEST(SolverProperty, CacheEvictsPastCapacityAndStaysCorrect) {
  const std::uint64_t seed = base_seed() ^ 0xbeefULL;
  Solver the_solver;
  SolveCache cache(8);  // tiny: force constant eviction
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(i);
    std::mt19937_64 rng(case_seed);
    const RandomSystem sys = make_system(rng);
    const Assignment prev = random_previous(sys, rng);
    const SolveResult plain =
        solve_flat(the_solver, sys.preds, sys.domains, prev, nullptr);
    const SolveResult cached =
        solve_flat(the_solver, sys.preds, sys.domains, prev, &cache);
    expect_same_result(plain, cached, case_seed, "evicting cache");
    if (testing::Test::HasFailure()) {
      log_failing_seed(case_seed);
      break;
    }
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.evictions(), 0);
}

}  // namespace
}  // namespace compi::solver
