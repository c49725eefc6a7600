// Process-global coverage sink: the crash-surviving half of coverage.
//
// The paper's tool reads per-process log files that survive the process —
// a segfaulting target still leaves the coverage it reached on disk.  In
// this reproduction coverage normally lives inside each rank's
// RuntimeContext, which dies with the process; the sandbox supervisor
// therefore maps a byte-per-branch region MAP_SHARED before fork() and
// installs it here in the child, so every covered branch is mirrored into
// memory the parent can still read after the child is killed by a real
// signal or the hang watchdog.
//
// Cost discipline: without an installed sink (the default, and always in
// the parent) the hot-path hook is one relaxed load and a branch.  Marks
// are racy single-byte stores from any worker's ranks — benign, and made
// formally so with std::atomic_ref.
//
// Each mark stamps the marking rank (rank + 1, saturated at
// kSinkRankSaturated) instead of a bare 1, first-write-wins, so the
// supervisor can attribute harvested coverage to the rank that actually
// executed the branch even when the child died before delivering its
// per-rank logs.  Concurrent first marks race; either rank's stamp is a
// true "this rank covered it" statement, so the race is harmless.
#pragma once

#include <atomic>
#include <cstddef>

namespace compi::rt {

namespace sink_detail {
inline std::atomic<unsigned char*> g_bytes{nullptr};
inline std::atomic<std::size_t> g_size{0};
}  // namespace sink_detail

/// Installs `bytes` (already zeroed, `size` = number of branch ids) as the
/// process-wide coverage mirror.  Not thread-safe against running targets:
/// install before launching, clear after.
inline void install_coverage_sink(unsigned char* bytes, std::size_t size) {
  sink_detail::g_size.store(size, std::memory_order_relaxed);
  sink_detail::g_bytes.store(bytes, std::memory_order_release);
}

inline void clear_coverage_sink() {
  sink_detail::g_bytes.store(nullptr, std::memory_order_release);
  sink_detail::g_size.store(0, std::memory_order_relaxed);
}

[[nodiscard]] inline bool coverage_sink_installed() {
  return sink_detail::g_bytes.load(std::memory_order_acquire) != nullptr;
}

/// Rank stamps above this value are clamped: a harvested byte of
/// kSinkRankSaturated means "covered by some rank >= 253".
inline constexpr unsigned char kSinkRankSaturated = 254;

/// Decodes a harvested sink byte back to the stamping rank (-1 when the
/// byte is clear).  A saturated stamp decodes to kSinkRankSaturated - 1;
/// callers treat out-of-world ranks as unattributable.
[[nodiscard]] inline int coverage_sink_rank(unsigned char byte) {
  return static_cast<int>(byte) - 1;
}

/// Mirrors branch id `id` into the installed sink, stamped with the
/// marking rank; no-op without one.  First write wins, so the stamp names
/// the first rank that covered the branch in this run.
inline void coverage_sink_mark(std::size_t id, int rank) {
  unsigned char* bytes =
      sink_detail::g_bytes.load(std::memory_order_acquire);
  if (bytes == nullptr) return;
  if (id < sink_detail::g_size.load(std::memory_order_relaxed)) {
    const unsigned char stamp =
        rank >= 0 && rank < kSinkRankSaturated - 1
            ? static_cast<unsigned char>(rank + 1)
            : kSinkRankSaturated;
    std::atomic_ref<unsigned char> cell(bytes[id]);
    if (cell.load(std::memory_order_relaxed) == 0) {
      cell.store(stamp, std::memory_order_relaxed);
    }
  }
}

}  // namespace compi::rt
