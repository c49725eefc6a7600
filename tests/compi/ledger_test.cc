// The coverage attribution ledger: first-hit provenance, per-rank hit
// counts, solver near-misses, checkpoint-v4 persistence, and the CSV
// export `--explain` reads back.
#include "compi/ledger.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "compi/checkpoint.h"
#include "compi/explain.h"
#include "minimpi/launcher.h"
#include "tests/compi/fig2_target.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_table;

/// A RunResult with `nranks` ranks, each holding an all-zero bitmap sized
/// to the fig2 table.
minimpi::RunResult make_run(int nranks) {
  minimpi::RunResult run;
  run.ranks.resize(static_cast<std::size_t>(nranks));
  for (auto& rank : run.ranks) {
    rank.log.covered = rt::CoverageBitmap(fig2_table().num_branches());
  }
  return run;
}

CoverageLedger::RunContext ctx_at(int iteration,
                                  const std::map<std::string, std::int64_t>*
                                      inputs = nullptr,
                                  const std::vector<sym::BranchId>*
                                      harvested = nullptr) {
  CoverageLedger::RunContext ctx;
  ctx.iteration = iteration;
  ctx.nprocs = 4;
  ctx.focus = 1;
  ctx.inputs = inputs;
  ctx.harvested = harvested;
  return ctx;
}

TEST(CoverageLedger, FirstHitAttributionIsRecordedOnceAndHitsAccumulate) {
  CoverageLedger ledger(fig2_table());
  const std::map<std::string, std::int64_t> inputs{{"x", 5}, {"y", 77}};

  minimpi::RunResult run = make_run(2);
  run.ranks[1].log.covered.mark(6);
  ledger.record_run(ctx_at(3, &inputs), run);

  ASSERT_EQ(ledger.covered_branches(), 1u);
  const BranchAttribution& a = ledger.attribution(6);
  EXPECT_TRUE(a.covered());
  EXPECT_EQ(a.first_iteration, 3);
  EXPECT_EQ(a.first_focus, 1);
  EXPECT_EQ(a.first_nprocs, 4);
  EXPECT_EQ(a.first_rank, 1);
  EXPECT_FALSE(a.first_harvested);
  EXPECT_EQ(a.first_inputs.at("y"), 77);

  // A later run by another rank bumps hit counts but keeps the first-hit.
  minimpi::RunResult again = make_run(3);
  again.ranks[0].log.covered.mark(6);
  again.ranks[1].log.covered.mark(6);
  ledger.record_run(ctx_at(9), again);
  const BranchAttribution& b = ledger.attribution(6);
  EXPECT_EQ(b.first_iteration, 3);
  EXPECT_EQ(b.total_hits(), 3u);
  ASSERT_GE(b.hits_per_rank.size(), 2u);
  EXPECT_EQ(b.hits_per_rank[0], 1u);
  EXPECT_EQ(b.hits_per_rank[1], 2u);
  const std::vector<std::size_t> per_rank = ledger.branches_per_rank();
  ASSERT_GE(per_rank.size(), 2u);
  EXPECT_EQ(per_rank[0], 1u);
  EXPECT_EQ(per_rank[1], 1u);
}

TEST(CoverageLedger, HarvestedFirstHitsAreFlagged) {
  CoverageLedger ledger(fig2_table());
  const std::vector<sym::BranchId> harvested{4, 10};  // sorted

  minimpi::RunResult run = make_run(2);
  run.ranks[0].log.covered.mark(4);   // from the harvest map
  run.ranks[0].log.covered.mark(2);   // delivered normally
  ledger.record_run(ctx_at(0, nullptr, &harvested), run);

  EXPECT_TRUE(ledger.attribution(4).first_harvested);
  EXPECT_FALSE(ledger.attribution(2).first_harvested);
}

TEST(CoverageLedger, NearMissesTrackAttemptsAndAreSettledByCoverage) {
  CoverageLedger ledger(fig2_table());
  ledger.record_solve_failure(11, 2, "x1 != 0", false);
  ledger.record_solve_failure(11, 5, "x1 != 0", true);
  ledger.record_solve_failure(7, 6, "x2 < 0", false);

  ASSERT_TRUE(ledger.near_miss(11).has_value());
  EXPECT_EQ(ledger.near_miss(11)->attempts, 2);
  EXPECT_EQ(ledger.near_miss(11)->last_iteration, 5);
  EXPECT_TRUE(ledger.near_miss(11)->budget_exhausted);

  // Most-attempted first.
  const std::vector<sym::BranchId> misses = ledger.nearest_misses();
  ASSERT_EQ(misses.size(), 2u);
  EXPECT_EQ(misses[0], 11);
  EXPECT_EQ(misses[1], 7);

  // Coverage settles the near miss: record_solve_failure on a covered
  // branch is ignored and the stale record is dropped.
  minimpi::RunResult run = make_run(1);
  run.ranks[0].log.covered.mark(11);
  ledger.record_run(ctx_at(8), run);
  EXPECT_FALSE(ledger.near_miss(11).has_value());
  ledger.record_solve_failure(11, 9, "x1 != 0", false);
  EXPECT_FALSE(ledger.near_miss(11).has_value());
  EXPECT_EQ(ledger.nearest_misses().size(), 1u);
}

TEST(CoverageLedger, SnapshotRoundTripsThroughWriteAndRead) {
  CoverageLedger ledger(fig2_table());
  const std::map<std::string, std::int64_t> inputs{{"x", 33}};
  minimpi::RunResult run = make_run(2);
  run.ranks[0].log.covered.mark(3);
  run.ranks[1].log.covered.mark(5);
  const std::vector<sym::BranchId> harvested{5};
  ledger.record_run(ctx_at(4, &inputs, &harvested), run);
  ledger.record_solve_failure(9, 6, "with \\ and\nnewline", true);

  std::stringstream snapshot;
  ledger.write(snapshot);

  CoverageLedger restored(fig2_table());
  ASSERT_TRUE(restored.read(snapshot));
  EXPECT_EQ(restored.covered_branches(), 2u);
  EXPECT_EQ(restored.attribution(3).first_iteration, 4);
  EXPECT_EQ(restored.attribution(3).first_inputs.at("x"), 33);
  EXPECT_TRUE(restored.attribution(5).first_harvested);
  EXPECT_EQ(restored.attribution(5).first_rank, 1);
  ASSERT_TRUE(restored.near_miss(9).has_value());
  EXPECT_EQ(restored.near_miss(9)->constraint, "with \\ and\nnewline");
  EXPECT_TRUE(restored.near_miss(9)->budget_exhausted);

  // A snapshot for a different branch table is rejected.
  rt::BranchTable other;
  other.add_site("f", "only_site");
  other.finalize();
  CoverageLedger mismatched(other);
  std::stringstream replay(snapshot.str());
  ledger.write(replay);
  EXPECT_FALSE(mismatched.read(replay));
}

TEST(CoverageLedger, SurvivesACheckpointV4RoundTrip) {
  CoverageLedger ledger(fig2_table());
  minimpi::RunResult run = make_run(1);
  run.ranks[0].log.covered.mark(0);
  ledger.record_run(ctx_at(1), run);
  ledger.record_solve_failure(13, 2, "x1 + -77 != 0", false);

  ckpt::CampaignCheckpoint checkpoint;
  checkpoint.seed = 7;
  checkpoint.worker_cursors.emplace_back();
  checkpoint.worker_cursors[0].strategy_name = "bounded-dfs";
  // Blobs are line-oriented and newline-terminated (as save_state and
  // CoverageLedger::write produce them).
  checkpoint.worker_cursors[0].strategy_state = "opaque\nstrategy\nlines\n";
  std::ostringstream ledger_blob;
  ledger.write(ledger_blob);
  checkpoint.ledger_state = ledger_blob.str();

  std::stringstream file;
  checkpoint.write(file);
  const auto restored = ckpt::CampaignCheckpoint::read(file);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->worker_cursors.size(), 1u);
  EXPECT_EQ(restored->worker_cursors[0].strategy_state,
            checkpoint.worker_cursors[0].strategy_state);
  ASSERT_FALSE(restored->ledger_state.empty());

  CoverageLedger recovered(fig2_table());
  std::istringstream blob(restored->ledger_state);
  ASSERT_TRUE(recovered.read(blob));
  EXPECT_EQ(recovered.covered_branches(), 1u);
  EXPECT_EQ(recovered.attribution(0).first_iteration, 1);
  ASSERT_TRUE(recovered.near_miss(13).has_value());
  EXPECT_EQ(recovered.near_miss(13)->constraint, "x1 + -77 != 0");
}

TEST(CoverageLedger, CsvExportRoundTripsThroughTheExplainReader) {
  CoverageLedger ledger(fig2_table());
  const std::map<std::string, std::int64_t> inputs{{"x", 5}, {"y", 77}};
  minimpi::RunResult run = make_run(2);
  run.ranks[0].log.covered.mark(8);
  run.ranks[1].log.covered.mark(8);
  const std::vector<sym::BranchId> harvested{8};
  ledger.record_run(ctx_at(2, &inputs, &harvested), run);
  ledger.record_solve_failure(12, 7, "a, \"quoted\" constraint", true);

  const fs::path file =
      fs::temp_directory_path() /
      ("compi_ledger_csv_" + std::to_string(::getpid()) + ".csv");
  {
    std::ofstream out(file);
    ledger.write_csv(out, fig2_table());
  }
  const std::vector<LedgerCsvRow> rows = read_ledger_csv(file);
  fs::remove(file);
  ASSERT_EQ(rows.size(), fig2_table().num_branches());

  const LedgerCsvRow& hit = rows[8];
  EXPECT_EQ(hit.branch, 8);
  EXPECT_EQ(hit.site, "rank_zero");
  EXPECT_EQ(hit.function, "share_work");
  EXPECT_TRUE(hit.covered);
  EXPECT_EQ(hit.first_iteration, 2);
  EXPECT_TRUE(hit.first_harvested);
  EXPECT_EQ(hit.total_hits, 2u);
  ASSERT_EQ(hit.hits_per_rank.size(), 2u);
  EXPECT_EQ(hit.hits_per_rank[0], 1u);
  EXPECT_EQ(hit.first_inputs, "x=5 y=77");

  const LedgerCsvRow& miss = rows[12];
  EXPECT_FALSE(miss.covered);
  EXPECT_EQ(miss.miss_attempts, 1);
  EXPECT_EQ(miss.miss_last_iteration, 7);
  EXPECT_TRUE(miss.miss_budget_exhausted);
  EXPECT_EQ(miss.miss_constraint, "a, \"quoted\" constraint");
}

TEST(CsvQuote, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_quote("plain"), "plain");
  EXPECT_EQ(csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
}

}  // namespace
}  // namespace compi
