// Shared pieces of the campaign benchmark: metric collection and the
// outside-in span recorder used by the traced run.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "compi/driver.h"
#include "compi/target.h"

namespace perfbench {

/// Median of `v` (0 for an empty sample).  Takes a copy: it sorts.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, `q` in [0, 1] (0 for an empty sample).
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Metrics in emission order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  void write_json(std::ostream& os) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// One rank run of the target program, as seen from the program wrapper.
struct RankSpan {
  std::int64_t launch = 0;  // launch id, in launch order per worker
  int worker = 0;           // campaign worker that launched the job
  int rank = 0;
  int nprocs = 0;
  double start_us = 0.0;    // since the recorder's epoch
  double end_us = 0.0;
  int iteration = -1;       // filled in by SpanRecorder::analyse
};

/// Per-launch and per-iteration figures derived from the rank spans and
/// the campaign's IterationRecords.
struct SpanAnalysis {
  std::size_t launches = 0;
  std::vector<double> rank_exec_us;       // one per rank run
  std::vector<double> launch_gap_us;      // exec_seconds minus rank envelope
  std::vector<double> between_launch_us;  // last exit -> next first entry
  /// False when the launch count did not match what the IterationRecords
  /// (retries, new-bug confirmations) predict; iteration ids and launch
  /// gaps are then left out.
  bool iterations_mapped = false;
};

/// Records one span per rank run of a wrapped target.  Spans stay in memory
/// until the campaign ends; launches are told apart per worker by counting
/// rank entries (every launch calls the program once per rank, and one
/// worker's launches never overlap).
class SpanRecorder {
 public:
  explicit SpanRecorder(int max_procs);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A copy of `target` whose program records into this recorder.  The
  /// recorder must outlive every launch of the returned target.
  [[nodiscard]] compi::TargetInfo wrap(const compi::TargetInfo& target);

  /// Groups spans into launches, assigns iteration ids from `result`, and
  /// computes the per-layer samples.
  [[nodiscard]] SpanAnalysis analyse(const compi::CampaignResult& result);

  /// Chrome trace_event JSON in the dialect of obs/trace.cc: one track per
  /// worker (launch envelopes) plus one per rank.  Call after analyse().
  void write_chrome_json(std::ostream& os) const;

 private:
  struct WorkerCursor {
    std::int64_t launch = -1;
    int entered = 0;
    int nprocs = 0;
  };
  [[nodiscard]] double now_us() const;

  int track_stride_;
  std::int64_t epoch_ns_;
  std::int64_t epoch_wall_us_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<WorkerCursor> cursors_;
  std::int64_t next_launch_ = 0;
  std::vector<RankSpan> spans_;
};

}  // namespace perfbench
