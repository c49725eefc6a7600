// Campaign metrics: a lock-cheap registry of named counters, gauges and
// log-bucketed histograms, dumped in Prometheus exposition format.
//
// The paper's evaluation is an accounting exercise — where does campaign
// time go, solver vs. execution vs. framework overhead (Tables 4-6) — so
// the engine needs counters it can afford to bump on hot paths.  Handles
// are registered once (find-or-create under a mutex) and held by the
// instrumented code; after that every update is a single relaxed atomic
// op, safe from any thread.  Values are process-global and cumulative,
// exactly like Prometheus counters: the dump written at checkpoint time and
// campaign end (`metrics.prom`) is a scrape, not a per-campaign report.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace compi::obs {

/// Monotonic counter.  `inc` is one relaxed atomic add.
class Counter {
 public:
  void inc(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Histogram over fixed log-scale buckets: upper bounds 1, 2, 4, ...,
/// 2^(kBuckets-1), plus +Inf.  In microseconds that spans 1 us to ~134 s —
/// everything from a branch event to a full stalled-collective timeout.
/// Fixed bounds mean `observe` is two relaxed atomic adds and no locking,
/// and dumps from different processes are mergeable.
class Histogram {
 public:
  static constexpr int kBuckets = 28;

  /// Upper bound of bucket `i` (inclusive, `le` in Prometheus terms).
  [[nodiscard]] static std::int64_t bound(int i) {
    return std::int64_t{1} << i;
  }

  /// Index of the first bucket whose bound is >= v (kBuckets = +Inf).
  [[nodiscard]] static int bucket_of(std::int64_t v);

  void observe(std::int64_t v);

  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t bucket_count(int i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max_observed() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Estimated p-quantile (p in [0, 1]): linear interpolation inside the
  /// winning bucket, capped by the exact observed maximum.  0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::atomic<std::int64_t> counts_[kBuckets + 1]{};  // last = +Inf
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Exact nearest-rank-with-interpolation percentile over raw samples
/// (`p` in [0, 1]); the helper the bench tables use for p50/p95 columns.
/// Returns 0 for an empty sample set.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Escapes a string for use as a Prometheus label value: `\` -> `\\`,
/// `"` -> `\"`, newline -> `\n` (per the text exposition format).  Shard
/// names are user-chosen and checkpoint v7 allows spaces and newlines in
/// them, so every labeled metric built from one must pass through here.
[[nodiscard]] std::string escape_label_value(std::string_view value);

/// Builds `base{label="<escaped value>"}` — the full metric name under
/// which a labeled series registers.
[[nodiscard]] std::string labeled_name(std::string_view base,
                                       std::string_view label,
                                       std::string_view value);

/// Named-handle registry.  `counter`/`gauge`/`histogram` find-or-create
/// under a mutex (startup cost only); returned references stay valid for
/// the process lifetime.  Re-registering a name returns the same handle;
/// registering it as a different kind is a programming error (asserts).
class Registry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name,
                                 const std::string& help);
  [[nodiscard]] Gauge& gauge(const std::string& name, const std::string& help);
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     const std::string& help);

  /// Prometheus text exposition format (# HELP / # TYPE / samples), metrics
  /// in registration order.
  void write_prometheus(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& find_or_create(const std::string& name, const std::string& help,
                        Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// The process-global registry every subsystem registers into.
[[nodiscard]] Registry& registry();

}  // namespace compi::obs
