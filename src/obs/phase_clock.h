// Per-thread CPU-phase clock.
//
// Under --workers > 1, several driver loops run wall-clock-concurrently:
// summing per-iteration *wall* durations across workers double-counts the
// campaign's elapsed time (two workers solving for 1 s each during the
// same wall second would report 2 s).  Thread CPU time does not have that
// failure mode — it meters the cycles THIS thread actually burned, so
// per-worker phase costs sum to aggregate CPU spent, regardless of how
// the scheduler interleaved the workers (and it excludes time the thread
// spent descheduled, which wall clocks silently inflate).  The driver uses
// it for the solve phase, which runs entirely on the worker's own thread; the
// execute phase may run in a forked child (--isolate), so its per-worker
// cost stays a wall-clock reading — see DESIGN.md "Timing
// semantics" for the full contract.
#pragma once

#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#endif

namespace compi::obs {

/// Seconds of CPU time consumed by the CALLING thread since some fixed
/// point; differences of two readings meter a phase.  Falls back to a
/// steady wall clock on platforms without a per-thread CPU clock.
[[nodiscard]] inline double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace compi::obs
