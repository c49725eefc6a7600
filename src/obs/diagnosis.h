// Search-stall diagnosis: why has the campaign stopped earning coverage?
//
// The COMPI paper's whole evaluation is iterations-to-coverage curves; the
// operational question a flat curve raises is *which* resource ran dry.
// This engine consumes the coverage timeline, the negation-frontier depth,
// the solver outcome mix, and (on a coordinator) per-shard progress, and
// classifies the current state into one of a small closed set of verdicts:
//
//   progressing       coverage grew within the plateau window
//   coverage-plateau  the search still has candidates but none of them
//                     earn new branches (the paper's saturation regime)
//   frontier-starved  nothing left to negate: the negation frontier and
//                     the interleaving queue are both empty
//   solver-thrash     budget-exhausted solver outcomes dominate — time is
//                     burning in searches that reach no verdict
//   straggler-shard   one shard's rate has fallen far behind the fleet
//   lease-churn       leases keep being reclaimed and re-granted; work is
//                     bouncing between shards instead of finishing
//
// `diagnose()` is a pure function over an explicit input snapshot, so
// tests feed it synthetic timelines; `DiagnosisEngine` is the stateful
// wrapper the campaign loops use — it accumulates the timeline, re-runs
// the classifier, and emits a journal `diagnosis` event on every verdict
// TRANSITION (not every sample).  Everything here is plain computation on
// caller-provided state: the obs-off build compiles it unchanged, and a
// session that never constructs an engine is byte-identical to before.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace compi::obs {

class Journal;

enum class StallKind {
  kProgressing,
  kCoveragePlateau,
  kFrontierStarved,
  kSolverThrash,
  kStragglerShard,
  kLeaseChurn,
};

[[nodiscard]] const char* to_string(StallKind kind);
/// Inverse of to_string; nullopt for any other text.
[[nodiscard]] std::optional<StallKind> stall_kind_from_string(
    std::string_view s);

/// One point on the coverage timeline (campaign-relative seconds).
struct CoveragePoint {
  double seconds = 0.0;
  std::int64_t covered = 0;
};

/// One shard's progress summary as the coordinator sees it.
struct ShardProgress {
  std::string name;
  double rate = 0.0;  ///< iterations per second over the recent window
  bool connected = true;
  double since_last_seen = 0.0;  ///< seconds since the last frame
};

struct DiagnosisInput {
  /// Campaign-relative wall clock of the sample being classified.
  double elapsed_seconds = 0.0;
  /// Coverage samples, oldest first.  The classifier only needs enough
  /// history to find the last increase; callers may thin freely.
  std::vector<CoveragePoint> coverage_timeline;
  /// Negation-frontier depth; -1 when unknown (a coordinator that has not
  /// received telemetry yet must not conclude "frontier-starved").
  std::int64_t frontier_depth = -1;
  std::int64_t interleavings_pending = 0;
  /// Cumulative solver outcome mix.
  std::int64_t solver_sat = 0;
  std::int64_t solver_unsat = 0;
  std::int64_t solver_budget = 0;
  /// Fleet view; empty for standalone campaigns.
  std::vector<ShardProgress> shards;
  std::int64_t shards_joined = 0;
  std::int64_t leases_reclaimed = 0;
  /// Seconds without new coverage before a stall verdict is considered.
  double plateau_window_seconds = 20.0;
};

struct Diagnosis {
  StallKind kind = StallKind::kProgressing;
  /// One human sentence: the verdict plus the numbers that drove it.
  std::string detail;
  /// Seconds since the timeline last recorded new coverage.
  double stalled_seconds = 0.0;
};

/// Pure classifier.  Precedence once the plateau window is exceeded:
/// lease-churn > straggler-shard > frontier-starved > solver-thrash >
/// coverage-plateau — infrastructure explanations are checked before
/// search-intrinsic ones because fixing them can revive the curve.
[[nodiscard]] Diagnosis diagnose(const DiagnosisInput& in);

/// Stateful wrapper for the campaign loops: tracks where the coverage
/// maximum last rose, classifies each sample, and journals verdict
/// transitions as `diagnosis` events.  Null journal = classify only.
class DiagnosisEngine {
 public:
  explicit DiagnosisEngine(Journal* journal = nullptr) : journal_(journal) {}

  /// Feeds one sample.  `in.coverage_timeline` is ignored; the engine
  /// derives it from (elapsed_seconds, covered).  Only a new coverage
  /// maximum counts as progress, so parallel workers reporting stale
  /// lower counts out of order cannot fake a fresh gain.  The frontier
  /// and interleaving inputs are debounced: a momentary zero (the
  /// exhaust → restart → replan cycle empties them every few
  /// iterations) only reads as starvation once it has persisted for the
  /// whole plateau window.  Returns the current diagnosis.
  Diagnosis update(DiagnosisInput in, std::int64_t covered, int iteration);

  /// Continues a resumed campaign whose journal last recorded a `kind`
  /// verdict: the first sample journals an event only when its verdict
  /// differs, as it would have in the uninterrupted campaign.
  void resume(StallKind kind);

  [[nodiscard]] const Diagnosis& current() const { return current_; }

 private:
  Journal* journal_;
  bool has_samples_ = false;
  CoveragePoint first_;      ///< the campaign's first sample
  CoveragePoint last_gain_;  ///< when the coverage maximum last rose
  double work_seen_at_ = 0.0;        ///< last sample with a non-empty (or
                                     ///< unknown) frontier or queue
  std::int64_t last_frontier_ = -1;  ///< most recent non-zero depth
  std::int64_t last_pending_ = 0;    ///< most recent non-zero queue size
  Diagnosis current_;
  bool reported_once_ = false;
};

}  // namespace compi::obs
