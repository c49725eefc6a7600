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
//                                 history store the snapshots resume from
//   <dir>/coverage_timeline.csv   one row per iteration that grew coverage
//   <dir>/journal.jsonl           the event journal (--journal)
//   <dir>/session.log             the resume snapshots (crash recovery)
//   <dir>/bugs.txt                each bug with its error-inducing inputs
//   <dir>/summary.txt             end-of-campaign totals
//   <dir>/ledger.csv              end-of-campaign coverage attribution
//
// iterations.csv, coverage_timeline.csv and journal.jsonl are append-only
// streams, and SessionWriter owns their lengths.  A snapshot is their one
// commit point: it records the byte lengths of iterations.csv and
// journal.jsonl, and a resume cuts both files back to those lengths before
// it appends again.  Nothing is re-parsed on the way; coverage_timeline.csv
// is re-derived from the restored rows.
//
// session.log is append-only too, a write-ahead log of checksummed frames.
// Each periodic snapshot appends one record, in one write(2) followed by
// one fdatasync: a rows frame with the iterations.csv bytes appended since
// the previous record, then a snapshot frame with the checkpoint text.
// So the log, not iterations.csv, makes a snapshot's rows durable: the CSV
// is written but never fsynced, except below `base`, the CSV length the
// last compaction fsynced.  A snapshot's history is iterations.csv up to
// base plus the log's rows frames up to the snapshot; a resume rewrites
// the CSV from the log where power loss left it short or different.  When
// the log outgrows kCompactFactor times its newest snapshot frame, it is
// replaced by its newest two snapshots and the rows frame between them.
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

/// Loads the newest usable snapshot of <dir>/session.log.  The log is read
/// up to its first frame with a bad length or checksum; its snapshot
/// frames are tried newest first.  Each rebuilds its iteration history
/// from its `streams.csv_bytes` committed CSV bytes: iterations.csv up to
/// the log's base, then the log's rows frames.  They must hold the header,
/// then `history_rows` whole rows with increasing ordinals below
/// `next_iteration`.  Anything else makes the snapshot unusable, so a
/// resume never continues from a short history, and so does a snapshot
/// `usable` (when given) rejects.  nullopt when no snapshot is usable.
[[nodiscard]] std::optional<ckpt::CampaignCheckpoint> read_checkpoint(
    const std::filesystem::path& dir,
    const std::function<bool(const ckpt::CampaignCheckpoint&)>& usable = {});

/// Bytes of a session.log frame's header; its body follows it.
inline constexpr std::size_t kLogFrameHeader = 24;

/// One frame of a session log.  A rows frame holds iterations.csv bytes
/// from offset `at` on; a snapshot frame holds a checkpoint's text and
/// commits the CSV up to length `at`.
struct SessionLogFrame {
  enum class Kind : char { kRows = 'R', kSnapshot = 'S' };
  Kind kind = Kind::kSnapshot;
  std::uint64_t at = 0;
  std::string body;
};

/// Every intact frame of <dir>/session.log, in order, up to the first one
/// with a bad length or checksum.  (Tools and tests; the resume path reads
/// the log one frame at a time.)
[[nodiscard]] std::vector<SessionLogFrame> read_session_log(
    const std::filesystem::path& dir);

/// Replaces <dir>/session.log with `frames`, checksummed as the writer
/// does (tools and tests: editing a snapshot in place).
bool write_session_log(const std::filesystem::path& dir,
                       const std::vector<SessionLogFrame>& frames);

/// Every whole, parseable row of an iterations.csv file, in file order.
/// The header, a torn last row (no newline) and rows of other layouts are
/// skipped.
[[nodiscard]] std::vector<IterationRecord> read_iterations(
    const std::filesystem::path& csv);

class SessionWriter {
 public:
  /// The log is compacted when it passes this many times its newest
  /// snapshot frame: a SUSY log peaks near 1.3 MB.
  static constexpr std::uint64_t kCompactFactor = 64;

  /// Creates (or reuses) the session directory.  `keep_rank_logs` is the
  /// rank-log retention policy: K > 0 keeps the logs of every bug's first
  /// iteration plus the last K iterations; 0 keeps none; -1 keeps every
  /// iteration.  With `snapshots` off (--checkpoint-interval=0) the writer
  /// holds no rows for the log: a snapshot taken all the same (a halt)
  /// fsyncs iterations.csv instead.
  explicit SessionWriter(std::filesystem::path dir, int keep_rank_logs = -1,
                         bool snapshots = true);
  /// Writes the buffered CSV rows and closes the files; writes no snapshot.
  ~SessionWriter();
  SessionWriter(const SessionWriter&) = delete;
  SessionWriter& operator=(const SessionWriter&) = delete;

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
  /// coverage_timeline.csv hold their headers, then `rows`; session.log is
  /// emptied; with `journal`, journal.jsonl is emptied and the journal
  /// opened on it.
  void begin_iterations(const std::vector<IterationRecord>& rows,
                        obs::Journal* journal = nullptr);

  /// Continues the streams from a snapshot's commit point `at`, as
  /// read_checkpoint found it: session.log is cut after the snapshot's
  /// frame; iterations.csv gets the log's rows from at.csv_base to
  /// at.csv_bytes wherever it is short of them or differs, and is cut back
  /// to at.csv_bytes; journal.jsonl is cut to at.journal_bytes (or, when
  /// power loss left it shorter, to its last newline); and
  /// coverage_timeline.csv is re-derived from `history`, the rows below the
  /// cut.  Appends continue from there.  Zero lengths start the streams
  /// afresh.  Streams open once per writer: call this or begin_iterations,
  /// once.  Returns the kind of the last `diagnosis` event the kept journal
  /// holds ("" when none), the verdict a resumed campaign's stall diagnosis
  /// continues from.
  std::string resume_iterations(const ckpt::StreamLengths& at,
                         const IterationHistory& history,
                         obs::Journal* journal = nullptr);

  /// Appends one row to iterations.csv, plus a coverage_timeline.csv row
  /// when it grew coverage.  The row is formatted once, into the log's next
  /// rows frame; the CSV gets it through a buffer written when it fills.
  /// A kill loses only rows past the last snapshot, which a resume re-runs
  /// anyway.
  void append_iteration(const IterationRecord& rec);

  /// Writes the buffered streams and bugs.txt and summary.txt, plus the
  /// rank logs of the retained last-K window.  iterations.csv is rewritten
  /// only when a failed write lost some of its rows.
  void write_summary(const CampaignResult& result);

  /// Appends a snapshot to <dir>/session.log: one write(2) of the rows
  /// frame and the snapshot frame, then (with `sync`) one fdatasync, so
  /// the snapshot survives power loss, not just a kill.  The snapshot's
  /// `streams` are filled with the streams' lengths: it commits exactly
  /// those bytes.  The journal and the timeline are not synced.  A failed
  /// write leaves the log as it was, and its rows wait for the next
  /// snapshot.  While a failed CSV write has lost rows, no snapshot lands.
  void write_checkpoint(ckpt::CampaignCheckpoint checkpoint, bool sync = true);

  /// Writes <dir>/ledger.csv from the attribution ledger (at campaign end,
  /// like summary.txt; each snapshot carries the ledger's state).
  void write_ledger(const CoverageLedger& ledger, const rt::BranchTable& table);

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  /// Appends `rec`'s timeline row when it grew coverage.
  void append_timeline(const IterationRecord& rec);
  /// Writes csv_buf_ to iterations.csv; false when rows were lost.
  bool write_csv_buffer();
  /// Reports a failed CSV write and latches csv_lost_rows_.
  void lose_csv_rows();
  /// Opens session.log at log_bytes_, emptied when `fresh`.
  bool open_log(bool fresh);
  /// Appends record_ to the log (and syncs it); on failure cuts the log
  /// back to log_bytes_ and returns false.
  bool append_record(bool sync);
  /// Replaces the log with the previous record's snapshot frame and
  /// record_, after fsyncing iterations.csv.
  void compact();

  std::filesystem::path dir_;
  int keep_rank_logs_;
  bool snapshots_;
  /// iterations.csv, open for appends while the streams are active (begin
  /// or resume_iterations called); -1 otherwise.
  int csv_fd_ = -1;
  /// Rows formatted but not yet written to iterations.csv.
  std::string csv_buf_;
  /// The CSV stream's length, csv_buf_ included.
  std::uint64_t csv_bytes_ = 0;
  std::ofstream timeline_;
  /// Covered branches of the timeline's last row.
  std::size_t timeline_covered_ = 0;
  /// The journal whose file length snapshots commit; null without one.
  obs::Journal* journal_ = nullptr;
  /// Set once a CSV write failed: rows may be missing from the file, so no
  /// later snapshot may claim them (the last good one stays in place)
  /// until write_summary rewrites the file whole.
  bool csv_lost_rows_ = false;
  /// session.log, open for appends with the streams; its length, and
  /// whether its directory entry still awaits an fsync (a new file).
  int log_fd_ = -1;
  std::uint64_t log_bytes_ = 0;
  bool log_dir_unsynced_ = false;
  /// The next record: a rows frame (header, then the rows appended since
  /// the last record), then at a snapshot the snapshot frame.
  std::string record_;
  /// The last record the log took, and where its snapshot frame starts
  /// (0 when there is none, as after a resume): compaction keeps it.
  std::string prev_record_;
  std::size_t prev_snapshot_at_ = 0;
  /// The last-K retention window: rank results of the K highest ordinals
  /// handed to retain_iteration, written by write_summary.
  std::map<int, std::vector<minimpi::RankResult>> recent_;
};

}  // namespace compi
