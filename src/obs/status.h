// Campaign status snapshot: the one heartbeat schema shared by the
// --status-file writer, the /status endpoint, and `compi top`.
//
// This module is the single tmp+rename JSON heartbeat writer.  A
// StatusBoard is the live, mutex-guarded copy of the snapshot: campaign
// workers update it at iteration boundaries (with N > 1 they already hold
// the campaign mutex; the board's own leaf mutex only orders those writes
// against the control-plane server thread reading a snapshot).  Lock
// discipline: the board mutex is a LEAF — it is taken with the campaign
// mutex held but never the other way around, and the server thread takes
// it alone.
//
// The JSON schema is a strict superset of the original seven-field
// heartbeat: the legacy fields come first in the same order, so existing
// monitors keep working, and the whole object stays within the journal
// LineParser's dialect (flat + one nesting level, no arrays) so
// parse_status_json can reuse it.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace compi::obs {

/// What a worker is doing right now, as coarse phases.
enum class WorkerPhase : std::uint8_t { kIdle, kExecute, kSolve, kDone };

[[nodiscard]] const char* to_string(WorkerPhase p);
[[nodiscard]] std::optional<WorkerPhase> parse_worker_phase(
    std::string_view s);

struct WorkerStatus {
  int iteration = -1;  // ordinal currently (or last) executed by this worker
  WorkerPhase phase = WorkerPhase::kIdle;
  /// Campaign-relative timestamp (seconds) of this worker's last completed
  /// iteration — the liveness signal `compi top` highlights stalls with.
  double last_progress_seconds = 0.0;
  std::int64_t iterations_done = 0;
};

/// One coherent reading of the campaign, cheap to copy.
struct StatusSnapshot {
  // ---- legacy heartbeat fields (kept first, same order) ----
  int iteration = -1;
  std::size_t covered_branches = 0;
  std::size_t bugs = 0;
  double elapsed_seconds = 0.0;
  int nprocs = 0;
  int focus = 0;
  std::string outcome;
  // ---- control-plane extensions ----
  int serve_port = -1;  // bound HTTP port; -1 when not serving
  int workers = 1;
  int iterations_total = 0;
  std::size_t frontier_depth = 0;         // last path's negation candidates
  std::size_t interleavings_pending = 0;  // queued wildcard reorderings
  std::int64_t solver_cache_hits = 0;
  std::int64_t solver_cache_misses = 0;
  /// Coverage growth points (iteration, covered), thinned to a bounded
  /// count — the sparkline data.
  std::vector<std::pair<int, std::size_t>> coverage_timeline;
  std::vector<WorkerStatus> worker_status;
  /// Search-stall diagnosis (obs/diagnosis.h): the current verdict kind
  /// ("progressing", "frontier-starved", ...), its human detail sentence,
  /// and seconds since the last coverage gain.  Rendered as a nested
  /// `diagnosis` object (one level — within the JSON dialect).  Empty kind
  /// = no engine feeding this board.
  std::string diagnosis_kind;
  std::string diagnosis_detail;
  double diagnosis_stalled_seconds = 0.0;
};

/// Renders the snapshot as a single JSON object (newline-terminated), the
/// exact bytes --status-file and /status serve.
[[nodiscard]] std::string render_status_json(const StatusSnapshot& s);

/// Parses render_status_json output (tolerates the legacy 7-field form).
/// nullopt on malformed input.
[[nodiscard]] std::optional<StatusSnapshot> parse_status_json(
    std::string_view json);

/// Atomically rewrites `path` with `contents` via tmp + rename, so a
/// monitoring reader never observes a torn file.  Returns false when the
/// tmp file cannot be written or the rename fails.
bool write_status_file(const std::string& path, const std::string& contents);

/// The live snapshot the campaign engine maintains when a status file or
/// the control plane wants one.  All methods are thread-safe (leaf mutex).
class StatusBoard {
 public:
  StatusBoard(int workers, int iterations_total);

  void set_serve_port(int port);
  void set_campaign(int nprocs, int focus);
  /// Called once per completed iteration (the note_iteration sites).
  void record_iteration(int iteration, std::size_t covered, std::size_t bugs,
                        double elapsed, int nprocs, int focus,
                        std::string_view outcome, int worker);
  void set_depths(std::size_t frontier, std::size_t interleavings_pending);
  void set_solver_cache(std::int64_t hits, std::int64_t misses);
  void set_diagnosis(std::string_view kind, std::string_view detail,
                     double stalled_seconds);
  void worker_phase(int worker, int iteration, WorkerPhase phase);

  [[nodiscard]] StatusSnapshot snapshot() const;

 private:
  /// Timeline points retained; at 2x this the vector is thinned (keep
  /// every other point plus the last) so long campaigns stay bounded.
  static constexpr std::size_t kTimelineCap = 64;

  mutable std::mutex mu_;
  StatusSnapshot s_;
};

}  // namespace compi::obs
