// Common MiniMPI types.
//
// MiniMPI is the MPI substrate of this reproduction: a deterministic,
// in-process MPI-1 subset where every rank is a fiber on the launching
// thread, switched by a FIFO scheduler (fiber.h).  It provides what
// COMPI consumes from a real MPI — ranks, communicator sizes, Comm_split
// with local->global rank mappings, point-to-point and the MPI-1
// collectives — plus job-abort semantics: when one rank faults, blocked
// peers are woken and unwound, as mpiexec would kill the job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace compi::minimpi {

/// Reduction operators (MPI_Op subset used by the targets).
enum class Op : std::uint8_t { kSum, kProd, kMin, kMax };

/// Wildcard source / tag.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Thrown inside ranks blocked in MPI calls when the job aborts (a peer
/// faulted, the job's virtual deadline passed, or no rank can run).  Not a
/// target fault: the launcher maps it to the "aborted with the job" rank
/// status.
struct JobAborted {};

// ---- wildcard-receive decision vectors (match_scheduler.h) ----
// Defined here, next to kAnySource, so World can accept a plan without
// depending on the scheduler header.

/// One prescribed wildcard choice: the `seq`-th ANY_SOURCE receive posted
/// by (global) `rank` must consume a message from communicator-local
/// sender `src`.  A vector of these is a replayable interleaving.
struct MatchDecision {
  int rank = 0;
  int seq = 0;
  int src = 0;

  friend bool operator==(const MatchDecision&, const MatchDecision&) = default;
};

using MatchPlan = std::vector<MatchDecision>;

/// One wildcard decision as it was actually taken: the feasible sender set
/// observed at match time and the source chosen from it.  The trace of
/// these (in global match order) is what the driver enumerates alternative
/// interleavings from.
struct MatchRecord {
  int rank = 0;        // receiving rank (global)
  int seq = 0;         // per-rank ANY_SOURCE ordinal (posting order)
  int chosen_src = 0;  // communicator-local source consumed
  std::int64_t comm_uid = 0;
  int tag = kAnyTag;          // the receive's tag criterion
  std::vector<int> feasible;  // sorted communicator-local feasible sources
};

/// Serializes a span of trivially copyable values to bytes.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<std::byte> to_bytes(std::span<const T> data) {
  std::vector<std::byte> out(data.size_bytes());
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size_bytes());
  return out;
}

/// Deserializes bytes into a span of trivially copyable values.
template <typename T>
  requires std::is_trivially_copyable_v<T>
void from_bytes(std::span<const std::byte> bytes, std::span<T> out) {
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), out.size_bytes());
}

}  // namespace compi::minimpi
