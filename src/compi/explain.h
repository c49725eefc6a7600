// `--explain`: offline introspection over a logged session directory.
//
// A campaign that plateaus leaves three artifacts behind — journal.jsonl
// (the event-by-event record), ledger.csv (per-branch attribution and
// solver near-misses), and iterations.csv (the coverage curve).  This
// module replays them into the report a human asks for first:
//   * the coverage timeline (which iteration earned each coverage level),
//   * the top never-taken branch sites with the nearest-miss constraint
//     the solver could not satisfy,
//   * per-rank coverage skew (is one rank doing all the discovering?),
//   * the solver time / retry breakdown.
//
// Everything here is read-only and tolerant of partial sessions: a
// missing journal degrades the solver section to the CSV totals, a torn
// journal tail is skipped exactly as read_journal() skips it, and
// iterations.csv is read through the session's row parser
// (read_iterations), which skips a torn last row as a resume does.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "compi/history.h"

namespace compi::rt {
class BranchTable;
}  // namespace compi::rt

namespace compi {

class CoverageLedger;

struct ExplainOptions {
  /// Never-taken branch sites shown in the near-miss section.
  int top_misses = 5;
  /// Maximum coverage-timeline rows (discovery iterations are thinned
  /// evenly to this count; the first and last are always kept).
  int max_milestones = 12;
};

/// One parsed ledger.csv row (see CoverageLedger::write_csv for the
/// column meanings).  Unset numeric cells parse to their "never" values.
struct LedgerCsvRow {
  std::int64_t branch = -1;
  std::string site;
  std::string function;
  char arm = 'F';
  bool covered = false;
  std::int64_t first_iteration = -1;
  std::int64_t first_focus = -1;
  std::int64_t first_nprocs = 0;
  std::int64_t first_rank = -1;
  bool first_harvested = false;
  std::uint64_t total_hits = 0;
  std::vector<std::uint32_t> hits_per_rank;
  std::int64_t miss_attempts = 0;
  std::int64_t miss_last_iteration = -1;
  bool miss_budget_exhausted = false;
  std::string miss_constraint;
  std::string first_inputs;  // "name=value name=value ..."
  /// Interleaving replay that first covered this branch (cell 17; absent
  /// in pre-matchings sessions and for input-driven firsts — both -1).
  std::int64_t first_interleaving = -1;
};

/// Splits one CSV record into cells, honoring RFC 4180 quoting (doubled
/// quotes inside quoted cells).  Exposed for tests.
[[nodiscard]] std::vector<std::string> split_csv_row(const std::string& line);

/// Loads <file> written by CoverageLedger::write_csv.  Returns an empty
/// vector when the file is missing or has no data rows.
[[nodiscard]] std::vector<LedgerCsvRow> read_ledger_csv(
    const std::filesystem::path& file);

/// Renders the full introspection report for session directory `dir` onto
/// `os`.  Returns false (after printing which artifact is missing) when
/// the directory has neither a readable ledger.csv nor iterations.csv.
bool explain_session(const std::filesystem::path& dir, std::ostream& os,
                     const ExplainOptions& opts = {});

/// Renders the same report from a LIVE campaign (the /explain endpoint):
/// the in-memory ledger, the iteration records so far, and raw journal
/// lines from the in-memory tap.  The ledger CSV is rendered and re-parsed
/// through the exact offline reader so live and offline reports can never
/// drift.  The caller must hold whatever lock guards the ledger and
/// iteration history for the duration of the call.
[[nodiscard]] std::string explain_live(
    const CoverageLedger& ledger, const rt::BranchTable& table,
    const IterationHistory& iterations,
    const std::vector<std::string>& journal_lines,
    const ExplainOptions& opts = {});

}  // namespace compi
