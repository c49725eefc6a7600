// File-based testing sessions.
//
// The paper's tool communicates with the target through files: every
// process writes its log after each execution, COMPI reads them to drive
// the next test, and error-inducing inputs are logged for later analysis
// (§II-A, §V).  SessionWriter reproduces that on-disk layout:
//
//   <dir>/iter_<n>/rank_<r>.log   per-rank execution logs (retained
//                                 iterations only, see SessionWriter)
//   <dir>/iterations.csv          one row per iteration (coverage curves,
//                                 constraint-set sizes, timings); also the
//                                 history store the checkpoint resumes from
//   <dir>/bugs.txt                each bug with its error-inducing inputs
//   <dir>/summary.txt             end-of-campaign totals
//   <dir>/checkpoint.txt          periodic resume snapshot (crash recovery)
#pragma once

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compi/checkpoint.h"
#include "compi/driver.h"
#include "compi/ledger.h"
#include "minimpi/launcher.h"

namespace compi {

/// A bug read back from a session's bugs.txt — replayable via run_fixed.
struct LoggedBug {
  rt::Outcome outcome = rt::Outcome::kOk;
  std::string message;
  int first_iteration = 0;
  int occurrences = 0;
  int nprocs = 0;
  int focus = 0;
  bool flaky = false;
  std::map<std::string, std::int64_t> inputs;
  /// Wildcard decision vector of the failing run (match-scheduled
  /// campaigns only; empty otherwise).
  minimpi::MatchPlan decisions;
};

/// Parses a session's bugs.txt (written by SessionWriter::write_summary).
[[nodiscard]] std::vector<LoggedBug> read_bugs(
    const std::filesystem::path& bugs_file);

/// Parses a session's summary.txt into key -> value.
[[nodiscard]] std::map<std::string, std::string> read_summary(
    const std::filesystem::path& summary_file);

/// Loads <dir>/checkpoint.txt (or, when that is unreadable, the previous
/// snapshot kept as checkpoint.txt.bak) and rebuilds its iteration history
/// from <dir>/iterations.csv: exactly one parseable row for every ordinal
/// below `history_rows`, or the snapshot counts as unreadable — a resume
/// never continues from a short history.  nullopt when neither snapshot
/// is usable.
[[nodiscard]] std::optional<ckpt::CampaignCheckpoint> read_checkpoint(
    const std::filesystem::path& dir);

class SessionWriter {
 public:
  /// Creates (or reuses) the session directory.  `keep_rank_logs` is the
  /// rank-log retention policy: K > 0 keeps the logs of every bug's first
  /// iteration plus the last K iterations; 0 keeps none; -1 keeps every
  /// iteration.
  explicit SessionWriter(std::filesystem::path dir, int keep_rank_logs = -1);

  /// Writes every rank's log for one iteration now (unless the policy
  /// keeps none).  The campaign calls it when a new bug lands, so each bug
  /// in bugs.txt has its iter_<first_iteration>/ directory.
  void write_iteration(int iteration, const minimpi::RunResult& run);

  /// Hands over a completed iteration's rank logs.  -1 writes them now;
  /// K > 0 holds them in memory while the iteration is among the K highest
  /// ordinals seen, and write_summary writes those; 0 drops them.  Beyond
  /// the window an iteration costs no filesystem call and no serialize().
  void retain_iteration(int iteration, minimpi::RunResult&& run);

  /// Opens iterations.csv for incremental appends, holding the header plus
  /// any `restored` rows (a resumed session replays its checkpointed
  /// prefix).  A resume replaces the file whole (tmp + rename), so the
  /// history a snapshot rebuilds from is never torn.
  void begin_iterations(const std::vector<IterationRecord>& restored);

  /// Appends one row to iterations.csv.  Rows reach the file when a
  /// checkpoint is written (write_checkpoint flushes them before the
  /// snapshot) or when the stream's buffer fills; a kill loses only rows
  /// past the last snapshot, which a resume re-runs anyway.
  void append_iteration(const IterationRecord& rec);

  /// Writes iterations.csv, bugs.txt and summary.txt, plus the rank logs
  /// of the retained last-K window.  The CSV is fully rewritten (callers
  /// that never used begin_iterations — e.g. the random baseline tester —
  /// still get a complete file).
  void write_summary(const CampaignResult& result);

  /// Atomically replaces <dir>/checkpoint.txt (write-to-temp + rename, so a
  /// kill mid-write never leaves a truncated snapshot), after flushing the
  /// CSV rows the snapshot's history spans.  With `sync` the rows, the
  /// snapshot and the directory entry are also fsync()ed around the
  /// rename, so the snapshot survives power loss, not just a kill.  Without
  /// a successful CSV flush the previous snapshot is kept.
  void write_checkpoint(const ckpt::CampaignCheckpoint& checkpoint,
                        bool sync = true);

  /// Rewrites <dir>/ledger.csv from the attribution ledger (called at every
  /// checkpoint and at campaign end, like the obs exports).
  void write_ledger(const CoverageLedger& ledger, const rt::BranchTable& table);

  /// Rewrites <dir>/coverage_timeline.csv: one row per iteration that
  /// increased cumulative coverage (iteration, covered_branches,
  /// new_branches) — the file bench tables and --explain build
  /// iterations-to-coverage columns from.
  void write_coverage_timeline(const std::vector<IterationRecord>& iterations);

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  /// Flushes (and with `sync`, fsyncs) the appended CSV rows; false when
  /// they may not all have reached the file.
  bool flush_iterations(bool sync);
  /// Reports a failed CSV write, clears the stream, and latches
  /// csv_lost_rows_.
  void lose_csv_rows();

  std::filesystem::path dir_;
  int keep_rank_logs_;
  /// Open while incremental appends are active (begin_iterations called).
  std::ofstream csv_;
  /// Set once a CSV write failed: rows may be missing from the file, so no
  /// later snapshot may claim them (the last good one stays in place)
  /// until write_summary rewrites the file whole.
  bool csv_lost_rows_ = false;
  /// The last-K retention window: rank results of the K highest ordinals
  /// handed to retain_iteration, written by write_summary.
  std::map<int, std::vector<minimpi::RankResult>> recent_;
};

}  // namespace compi
