// Campaign event journal: an append-only JSONL record of every decision.
//
// The metrics registry answers "how much" and the trace ring answers
// "when", but neither can answer "which branch was earned by which input
// assignment" once a campaign plateaus.  The journal is the third leg of
// the obs substrate: one JSON object per line (journal.jsonl), written
// incrementally by the driver — an `iteration` event per test execution
// (planned assignment, focus, world size, outcome, solver stats,
// new-branch delta), a `solve` event per constraint negation attempt
// (negation index, target branch, SAT/UNSAT/budget, dependency-slice
// size), plus chaos-arming, retry, and sandbox-kill events.  `--explain`
// and external tooling replay the file to reconstruct the campaign's
// search behaviour event by event.
//
// Cost discipline mirrors the trace ring: events are serialized into an
// in-memory ring-style buffer and flushed to disk in batches (and at every
// checkpoint), so a journaling campaign pays one buffered append per
// event, not one syscall.  When the journal is not open, every emit site
// is a single `enabled()` branch — the same envelope as disabled tracing —
// and the obs-off build keeps the journal available (it is explicit opt-in
// I/O, not ambient instrumentation).
//
// Crash contract: the buffer is flushed at iteration granularity, so a
// killed campaign loses at most the in-flight tail; a resumed campaign
// calls open_resume(), which drops events at or past the checkpoint
// boundary (plus any torn trailing line) before appending, keeping the
// journal's iteration events exactly aligned with iterations.csv.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace compi::obs {

/// Serializes one flat JSON object into `out` (no nesting except via
/// explicit `begin_object`/`end_object` for the inputs map).  Keys are
/// emitted verbatim (callers pass literals); string values are escaped.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(&out) { out_->push_back('{'); }

  void field(std::string_view key, std::int64_t v);
  void field(std::string_view key, double v);
  void field(std::string_view key, std::string_view v);
  void field_bool(std::string_view key, bool v);
  /// Opens a nested object value: `"key":{`.  Close with end_object().
  void begin_object(std::string_view key);
  void end_object();
  /// Closes the top-level object and appends the newline.
  void finish();

  /// Escapes `v` into a JSON string literal (quotes included).
  static void append_escaped(std::string& out, std::string_view v);

 private:
  void key_prefix(std::string_view key);

  std::string* out_;
  bool first_ = true;
};

class Journal;

/// RAII builder for one journal event: constructs the line in the
/// journal's buffer, commits it on destruction.  Every event carries a
/// "type" and an "iter" field — the iteration ordinal is what open_resume
/// keys its truncation on.  Constructing an event on a disabled journal is
/// a no-op (all field calls become cheap branches).  With `held`, the
/// finished line goes there instead of into the journal, for a later
/// Journal::commit_held: events built on several threads can then land in
/// an order one thread chooses.
class JournalEvent {
 public:
  JournalEvent(Journal& journal, std::string_view type, int iteration,
               std::vector<std::string>* held = nullptr);
  ~JournalEvent();
  JournalEvent(const JournalEvent&) = delete;
  JournalEvent& operator=(const JournalEvent&) = delete;

  JournalEvent& num(std::string_view key, std::int64_t v);
  JournalEvent& real(std::string_view key, double v);
  JournalEvent& str(std::string_view key, std::string_view v);
  JournalEvent& boolean(std::string_view key, bool v);
  /// Nested `"inputs":{"name":value,...}` object from a named assignment.
  JournalEvent& inputs(const std::map<std::string, std::int64_t>& assignment);

 private:
  Journal* journal_ = nullptr;  // null when the journal is disabled
  std::vector<std::string>* held_ = nullptr;
  std::string line_;
  std::optional<JsonWriter> writer_;  // points into line_
};

class Journal {
 public:
  Journal() = default;

  /// Starts a fresh journal at `file` (truncates).  Returns false when the
  /// file cannot be opened; the journal then stays disabled.
  bool open(const std::filesystem::path& file);

  /// Resume-aware open: keeps existing events whose "iter" field is below
  /// `first_iteration` (the checkpoint boundary), drops everything at or
  /// past it — the killed process's un-checkpointed tail — plus any torn
  /// trailing line, then appends.  Falls back to open() when the file does
  /// not exist yet.
  bool open_resume(const std::filesystem::path& file, int first_iteration);

  [[nodiscard]] bool enabled() const {
    return out_.is_open() || tap_on_.load(std::memory_order_relaxed);
  }

  /// Enables the in-memory tap: the last `capacity` committed lines are
  /// retained in a ring with monotonically increasing sequence numbers,
  /// independent of whether a file is open.  This is what /events streams
  /// from — enabling the tap turns the emit sites on even when --journal
  /// is not writing to disk.  Idempotent; survives close().
  void enable_tap(std::size_t capacity);
  [[nodiscard]] bool tap_enabled() const {
    return tap_on_.load(std::memory_order_relaxed);
  }

  /// Appends every retained line committed at or after sequence `cursor`
  /// to `out` (oldest first, no trailing newlines) and returns the new
  /// cursor (one past the last line ever committed).  A cursor older than
  /// the retained window skips ahead — the subscriber missed events.
  std::uint64_t tap_since(std::uint64_t cursor,
                          std::vector<std::string>& out) const;

  /// Commits lines JournalEvent held, in order, and empties `held`.
  void commit_held(std::vector<std::string>& held);

  /// Flushes buffered events through to the OS.  Called by the driver at
  /// iteration boundaries and checkpoints; cheap when the buffer is empty.
  void flush();

  /// Closes the file (flushing first).  Idempotent.
  void close();

  /// Events committed since open (resume-retained lines not included).
  [[nodiscard]] std::size_t events_written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  friend class JournalEvent;

  /// Buffer watermark above which commit() drains to the stream.  Batches
  /// small events into one write without letting a crash lose more than
  /// ~one iteration's worth of lines (the driver flushes each iteration).
  static constexpr std::size_t kFlushBytes = 16 * 1024;

  void commit(std::string&& line);

  /// Guards buffer_/out_/events_: parallel campaign workers commit events
  /// concurrently, each event landing as one whole line.  open/close are
  /// driver-side (quiesced) but lock anyway — they are not hot.
  mutable std::mutex mu_;
  std::ofstream out_;
  std::filesystem::path path_;  ///< names the target in write-error logs
  std::string buffer_;
  std::size_t events_ = 0;
  /// Tap state (guarded by mu_ except the enable flag, which emit sites
  /// read lock-free like out_.is_open()).  tap_head_ is the sequence
  /// number one past the newest retained line.
  std::atomic<bool> tap_on_{false};
  std::size_t tap_capacity_ = 0;
  std::deque<std::string> tap_;
  std::uint64_t tap_head_ = 0;
};

// ---- read-back (the --explain side) ----

/// One parsed journal line: the event type plus every scalar field as raw
/// JSON text, with typed accessors.  Nested objects (the planned-input
/// assignment) are flattened as "inputs.<name>".
struct ParsedEvent {
  std::string type;
  std::map<std::string, std::string> fields;  // raw JSON values

  [[nodiscard]] std::optional<std::int64_t> num(const std::string& key) const;
  [[nodiscard]] std::optional<double> real(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> str(const std::string& key) const;
  [[nodiscard]] std::optional<bool> boolean(const std::string& key) const;
  /// The mandatory iteration ordinal; -1 when missing (malformed event).
  [[nodiscard]] int iter() const;
};

/// Parses one flat JSON object in the journal's dialect (scalars plus one
/// nesting level, flattened into dotted keys) without requiring the
/// "type"/"iter" journal envelope — the status heartbeat reuses this.
/// `type` is left empty.  nullopt on malformed input.
[[nodiscard]] std::optional<ParsedEvent> parse_json_object(
    std::string_view text);

/// Parses one JSONL line.  nullopt on malformed input (torn tail lines) —
/// callers skip those, mirroring the FrameReader's tolerance of a dying
/// writer's residue.
[[nodiscard]] std::optional<ParsedEvent> parse_journal_line(
    std::string_view line);

/// Reads a whole journal file; malformed lines are dropped (counted in
/// `malformed` when given).
[[nodiscard]] std::vector<ParsedEvent> read_journal(
    const std::filesystem::path& file, std::size_t* malformed = nullptr);

}  // namespace compi::obs
