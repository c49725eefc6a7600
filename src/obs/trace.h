// Structured tracing: ring-buffered scoped spans exported as Chrome
// trace_event JSON (chrome://tracing / Perfetto).
//
// One process-global Tracer holds a fixed ring of POD TraceEvents; a span
// (ObsSpan) or instant is recorded by bumping an atomic index and writing
// one slot, so the oldest events are overwritten when a campaign outlives
// the buffer (`--trace-buffer-kb`).  Every event carries a track id: track
// 0 is the campaign driver, track r+1 is MiniMPI rank r (published
// fiber-locally by the launcher), which is what turns the dump into the
// paper-style timeline — a solver span on the driver track sitting next to
// the stalled collective on the victim rank's track.
//
// Cost discipline: when tracing is off (the default), every hook is a
// single relaxed load + branch.  Compiling with COMPI_OBS_DISABLED removes
// even that: the span/instant API collapses to empty inlines and the
// exporter writes a valid empty trace.
//
// Event names and arg names must be string literals (or otherwise outlive
// the tracer): only the pointer is stored in the ring.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace compi::obs {

/// Span categories: the subsystems the per-phase accounting attributes
/// time to.  Serialized into the trace's "cat" field.
enum class Cat : std::uint8_t {
  kDriver,      // per-iteration envelope
  kSolver,      // constraint solving
  kExecute,     // target execution (rank bodies)
  kLaunch,      // fork/launch of a MiniMPI job
  kStrategy,    // search-strategy bookkeeping
  kCheckpoint,  // session snapshotting
  kChaosRetry,  // retry/backoff absorbing a transient failure
  kMpi,         // point-to-point message events
  kCollective,  // collective enter-exit
  kChaos,       // fault-plan injections (drop/delay/crash/stall)
  kSandbox,     // process-isolation supervisor (fork / kill / harvest)
  kMatch,       // wildcard-receive match decisions / deadlock verdicts
  kCoord,       // coordinator lease/merge/broadcast bookkeeping
};

[[nodiscard]] const char* to_string(Cat cat);

/// One ring slot.  POD so slots can be overwritten racily by design (the
/// ring is a lossy flight recorder, not a reliable log).
struct TraceEvent {
  const char* name = nullptr;      // static-storage string
  const char* arg_name = nullptr;  // optional, static-storage
  std::int64_t ts_us = 0;          // microseconds since Tracer epoch
  std::int64_t dur_us = 0;         // complete spans only
  std::int64_t arg = 0;
  std::int32_t tid = 0;            // 0 = driver, r+1 = rank r
  Cat cat = Cat::kDriver;
  char ph = 'X';                   // 'X' complete span, 'i' instant
};

class Tracer {
 public:
  /// Sizes (or resizes) the ring to hold `buffer_kb` KiB of events, clears
  /// it, and restarts the timestamp epoch.  Not thread-safe against
  /// concurrent record() — call before enabling.
  void configure(std::size_t buffer_kb);

  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const {
#ifdef COMPI_OBS_DISABLED
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }

  void record(const TraceEvent& event);

  /// Microseconds since the last configure().
  [[nodiscard]] std::int64_t now_us() const;

  /// Wall-clock time (microseconds since the Unix epoch) captured at the
  /// last configure() — the same instant the monotonic epoch restarted.
  /// Exported in the Chrome JSON's otherData so `compi trace-merge` can
  /// align traces from different processes on one absolute timeline.
  [[nodiscard]] std::int64_t epoch_wall_us() const { return epoch_wall_us_; }

  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events overwritten because the ring wrapped.
  [[nodiscard]] std::size_t dropped() const;

  /// Chrome trace_event JSON: {"traceEvents": [...]} with one thread_name
  /// metadata record per track seen ("driver", "rank 0", ...).  Loadable in
  /// chrome://tracing and Perfetto.
  void write_chrome_json(std::ostream& os) const;

 private:
  std::atomic<bool> enabled_{false};
  std::vector<TraceEvent> ring_;
  std::atomic<std::uint64_t> next_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::int64_t epoch_wall_us_ = 0;
};

/// The process-global tracer all hooks record into.
[[nodiscard]] Tracer& tracer();

#ifdef COMPI_OBS_DISABLED

inline void set_thread_track(int) {}
[[nodiscard]] inline int thread_track() { return 0; }
inline int* bind_track_slot(int*) { return nullptr; }

class ScopedTrack {
 public:
  explicit ScopedTrack(int) {}
};

class ObsSpan {
 public:
  ObsSpan(Cat, const char*) {}
  ObsSpan(Cat, const char*, const char*, std::int64_t) {}
  void set_arg(const char*, std::int64_t) {}
  void finish() {}
};

inline void instant(Cat, const char*, const char* = nullptr,
                    std::int64_t = 0) {}

#else  // tracing compiled in

/// Publishes the current track id (0 = driver; the launcher sets rank r's
/// fiber to r+1).
void set_thread_track(int tid);
[[nodiscard]] int thread_track();

/// Rebinds where the current track id lives and returns the previous slot
/// (nullptr = the thread's own).  MiniMPI's fiber scheduler binds each rank
/// fiber's slot while that fiber runs, which makes the track fiber-local.
int* bind_track_slot(int* slot);

/// RAII track override, restoring the previous track on scope exit (the
/// launcher's rank fibers; nested for MPMD relaunches on a pool thread).
class ScopedTrack {
 public:
  explicit ScopedTrack(int tid) : prev_(thread_track()) {
    set_thread_track(tid);
  }
  ~ScopedTrack() { set_thread_track(prev_); }
  ScopedTrack(const ScopedTrack&) = delete;
  ScopedTrack& operator=(const ScopedTrack&) = delete;

 private:
  int prev_;
};

/// RAII scoped span.  When tracing is off, construction and destruction
/// are each one relaxed load + branch; nothing else runs.
class ObsSpan {
 public:
  ObsSpan(Cat cat, const char* name) {
    if (tracer().enabled()) begin(cat, name);
  }
  ObsSpan(Cat cat, const char* name, const char* arg_name, std::int64_t arg)
      : ObsSpan(cat, name) {
    if (armed_) {
      event_.arg_name = arg_name;
      event_.arg = arg;
    }
  }
  ~ObsSpan() {
    if (armed_) end();
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// Attaches/overwrites the span's argument (e.g. a node count known only
  /// at the end of the scope).  No-op when tracing was off at construction.
  void set_arg(const char* name, std::int64_t value) {
    if (armed_) {
      event_.arg_name = name;
      event_.arg = value;
    }
  }

  /// Closes the span early (idempotent) — for callers that must export the
  /// trace before the enclosing scope ends (e.g. the campaign span, which
  /// would otherwise miss its own final dump).
  void finish() {
    if (armed_) {
      end();
      armed_ = false;
    }
  }

 private:
  void begin(Cat cat, const char* name);
  void end();

  TraceEvent event_{};
  bool armed_ = false;
};

/// Zero-duration event on the current thread's track.
inline void instant(Cat cat, const char* name, const char* arg_name = nullptr,
                    std::int64_t arg = 0) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  TraceEvent e;
  e.name = name;
  e.arg_name = arg_name;
  e.ts_us = t.now_us();
  e.arg = arg;
  e.tid = thread_track();
  e.cat = cat;
  e.ph = 'i';
  t.record(e);
}

#endif  // COMPI_OBS_DISABLED

}  // namespace compi::obs
