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
//   <dir>/coverage_timeline.csv   one row per iteration that grew coverage
//   <dir>/journal.jsonl           the event journal (--journal)
//   <dir>/bugs.txt                each bug with its error-inducing inputs
//   <dir>/summary.txt             end-of-campaign totals
//   <dir>/checkpoint.txt          periodic resume snapshot (crash recovery)
//
// iterations.csv, coverage_timeline.csv and journal.jsonl are append-only
// streams, and SessionWriter owns their lengths.  A snapshot is their one
// commit point: it records the byte lengths of iterations.csv and
// journal.jsonl, and a resume cuts both files back to those lengths before
// it appends again.  Nothing is re-parsed or rewritten on the way, except
// coverage_timeline.csv, which a resume re-derives from the restored rows.
#pragma once

#include <filesystem>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compi/checkpoint.h"
#include "compi/driver.h"
#include "compi/ledger.h"
#include "minimpi/launcher.h"

namespace compi::obs {
class Journal;
}  // namespace compi::obs

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

/// Loads <dir>/checkpoint.txt (or, when that is unusable, the previous
/// snapshot kept as checkpoint.txt.bak) and rebuilds its iteration history
/// from exactly the first `streams.csv_bytes` bytes of <dir>/iterations.csv:
/// the header, then `history_rows` whole rows with increasing ordinals
/// below `next_iteration`.  Anything else makes the snapshot unusable, so a
/// resume never continues from a short history, and so does a snapshot
/// `usable` (when given) rejects.  nullopt when neither snapshot is usable.
[[nodiscard]] std::optional<ckpt::CampaignCheckpoint> read_checkpoint(
    const std::filesystem::path& dir,
    const std::function<bool(const ckpt::CampaignCheckpoint&)>& usable = {});

/// Every whole, parseable row of an iterations.csv file, in file order.
/// The header, a torn last row (no newline) and rows of other layouts are
/// skipped.
[[nodiscard]] std::vector<IterationRecord> read_iterations(
    const std::filesystem::path& csv);

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

  /// Starts the session's append-only streams afresh: iterations.csv and
  /// coverage_timeline.csv hold their headers, then `rows`; with `journal`,
  /// journal.jsonl is emptied and the journal opened on it.
  void begin_iterations(const std::vector<IterationRecord>& rows,
                        obs::Journal* journal = nullptr);

  /// Continues the streams from a snapshot's commit point `at`:
  /// iterations.csv is cut back to at.csv_bytes and journal.jsonl to
  /// at.journal_bytes (or, when power loss left it shorter, to its last
  /// newline), and coverage_timeline.csv is re-derived from `history`, the
  /// rows below the cut.  Appends continue from there.  Zero lengths start
  /// the streams afresh.  Streams open once per writer: call this or
  /// begin_iterations, once.  Returns the kind of the last `diagnosis`
  /// event the kept journal holds ("" when none), the verdict a resumed
  /// campaign's stall diagnosis continues from.
  std::string resume_iterations(const ckpt::StreamLengths& at,
                         const IterationHistory& history,
                         obs::Journal* journal = nullptr);

  /// Appends one row to iterations.csv, plus a coverage_timeline.csv row
  /// when it grew coverage.  Rows reach the files when a checkpoint is
  /// written or when a stream's buffer fills; a kill loses only rows past
  /// the last snapshot, which a resume re-runs anyway.
  void append_iteration(const IterationRecord& rec);

  /// Flushes the streams and writes bugs.txt and summary.txt, plus the rank
  /// logs of the retained last-K window.  iterations.csv is rewritten only
  /// when a failed write lost some of its rows.
  void write_summary(const CampaignResult& result);

  /// Atomically replaces <dir>/checkpoint.txt (write-to-temp + rename, so a
  /// kill mid-write never leaves a truncated snapshot).  First it flushes
  /// the streams and fills the snapshot's `streams` with their lengths: the
  /// snapshot commits exactly those bytes.  With `sync` the CSV rows, the
  /// snapshot and the directory entry are also fsync()ed around the rename,
  /// so the snapshot survives power loss, not just a kill; the journal and
  /// the timeline are not.  Without a successful CSV flush the previous
  /// snapshot is kept.
  void write_checkpoint(ckpt::CampaignCheckpoint checkpoint, bool sync = true);

  /// Rewrites <dir>/ledger.csv from the attribution ledger (called at every
  /// checkpoint and at campaign end, like the obs exports).
  void write_ledger(const CoverageLedger& ledger, const rt::BranchTable& table);

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  /// Appends `rec`'s timeline row when it grew coverage.
  void append_timeline(const IterationRecord& rec);
  /// Flushes (and with `sync`, fsyncs) the appended CSV rows; false when
  /// they may not all have reached the file.
  bool flush_iterations(bool sync);
  /// Reports a failed CSV write, clears the stream, and latches
  /// csv_lost_rows_.
  void lose_csv_rows();

  std::filesystem::path dir_;
  int keep_rank_logs_;
  /// Open while appends are active (begin or resume_iterations called).
  std::ofstream csv_;
  std::ofstream timeline_;
  /// Covered branches of the timeline's last row.
  std::size_t timeline_covered_ = 0;
  /// The journal whose file length snapshots commit; null without one.
  obs::Journal* journal_ = nullptr;
  /// Set once a CSV write failed: rows may be missing from the file, so no
  /// later snapshot may claim them (the last good one stays in place)
  /// until write_summary rewrites the file whole.
  bool csv_lost_rows_ = false;
  /// The last-K retention window: rank results of the K highest ordinals
  /// handed to retain_iteration, written by write_summary.
  std::map<int, std::vector<minimpi::RankResult>> recent_;
};

}  // namespace compi
