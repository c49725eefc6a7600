// The packed in-memory iteration history reads back exactly what was
// appended, sequentially and at random, across block boundaries.
#include "compi/history.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

namespace compi {
namespace {

bool same(const IterationRecord& a, const IterationRecord& b) {
  return a.iteration == b.iteration && a.nprocs == b.nprocs &&
         a.focus == b.focus && a.outcome == b.outcome &&
         a.constraint_set_size == b.constraint_set_size &&
         a.covered_branches == b.covered_branches &&
         a.exec_seconds == b.exec_seconds &&
         a.solve_seconds == b.solve_seconds && a.restart == b.restart &&
         a.solver_nodes == b.solver_nodes && a.retries == b.retries &&
         a.worker == b.worker && a.interleaving == b.interleaving;
}

std::vector<IterationRecord> random_rows(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<IterationRecord> rows;
  int iter = static_cast<int>(rng() % 100);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    IterationRecord r;
    iter += 1 + static_cast<int>(rng() % 3);  // gaps from stopped epochs
    r.iteration = iter;
    r.nprocs = 1 + static_cast<int>(rng() % 16);
    r.focus = static_cast<int>(rng() % 16) - 1;
    r.outcome = static_cast<rt::Outcome>(rng() % 6);
    r.constraint_set_size = rng() % 5000;
    covered += rng() % 3;
    r.covered_branches = covered;
    r.exec_seconds = std::uniform_real_distribution<double>(0, 1)(rng);
    r.solve_seconds = i % 7 == 0 ? 0.0 : 1e-6 * static_cast<double>(rng());
    r.restart = (rng() & 1) != 0;
    r.solver_nodes = i % 11 == 0 ? std::numeric_limits<std::int64_t>::max()
                                 : static_cast<std::int64_t>(rng() % 1000);
    r.retries = static_cast<int>(rng() % 4);
    r.worker = static_cast<int>(rng() % 4);
    r.interleaving = i % 5 == 0 ? static_cast<std::int64_t>(rng() % 100000)
                                : -1;
    rows.push_back(r);
  }
  return rows;
}

TEST(IterationHistory, ReadsBackEveryRowStreamedAndDecoded) {
  const std::vector<IterationRecord> rows = random_rows(1000, 7);
  IterationHistory h;
  for (const IterationRecord& r : rows) h.push_back(r);
  ASSERT_EQ(h.size(), rows.size());
  for (std::size_t first : {0ul, 63ul, 64ul, 65ul, 500ul, 999ul, 1000ul}) {
    std::size_t i = first;
    h.visit(first, [&](const IterationRecord& r) {
      EXPECT_TRUE(same(r, rows[i])) << "row " << i << " from " << first;
      ++i;
    });
    EXPECT_EQ(i, rows.size()) << "from " << first;
  }
  // The decoded view: stable references, like a vector's.
  std::vector<const IterationRecord*> kept;
  for (const IterationRecord& r : h) kept.push_back(&r);
  ASSERT_EQ(kept.size(), rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    ASSERT_TRUE(same(*kept[k], rows[k])) << "row " << k;
    ASSERT_EQ(&h[k], kept[k]);
  }
  EXPECT_TRUE(same(h.front(), rows.front()));
  EXPECT_TRUE(same(h.back(), rows.back()));
}

TEST(IterationHistory, AssignsFromAVectorAndClears) {
  const std::vector<IterationRecord> rows = random_rows(130, 11);
  IterationHistory h;
  h = rows;
  const std::vector<IterationRecord> back(h.begin(), h.end());
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(same(back[i], rows[i])) << "row " << i;
  }
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.begin() == h.end());
}

TEST(IterationHistory, PacksARowIntoAFractionOfARecord) {
  // SUSY-like rows: consecutive ordinals, slowly growing coverage, few
  // nodes — the timings' 16 bytes dominate.
  IterationHistory h;
  for (int i = 0; i < 6000; ++i) {
    IterationRecord r;
    r.iteration = i;
    r.nprocs = 8;
    r.constraint_set_size = 1500;
    r.covered_branches = static_cast<std::size_t>(i / 100);
    r.exec_seconds = 1e-4 * i;
    r.solve_seconds = 2e-5 * i;
    r.solver_nodes = 3;
    h.push_back(r);
  }
  EXPECT_EQ(h.size(), 6000u);
  EXPECT_LE(h.memory_bytes(), 6000u * 32);
}

}  // namespace
}  // namespace compi
