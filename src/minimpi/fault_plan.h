// Deterministic fault injection for MiniMPI jobs (the "chaos layer").
//
// Real mpiexec jobs absorb environment-level failures the target never
// commits: killed ranks, lost or delayed messages, collectives that never
// complete because one member stalled.  A FaultPlan injects exactly those
// events into one MiniMPI job, seeded and deterministic, so the launcher's
// watchdog, peer-unwind (kAborted) and job-outcome aggregation can be
// exercised — and campaigns can be measured under noise (bench_bugs).
//
// Injection points are the MPI entry calls of each rank: the ChaosEngine
// counts them per rank and decides, from a stateless hash of (seed, rank,
// counter), whether to crash the rank, drop or delay an outgoing message,
// or stall a collective.  Per-rank counters make every decision independent
// of rank interleaving: the same plan over the same program always injects
// the same faults.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "runtime/faults.h"

namespace compi::minimpi {

class World;

/// What to inject into one launched job.  Default-constructed = no chaos.
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Probability that an outgoing point-to-point message is silently lost
  /// (the receiver blocks; the job ends as a timeout).
  double drop_rate = 0.0;

  /// Probability that an outgoing message is delayed by `delay` first.
  double delay_rate = 0.0;
  std::chrono::milliseconds delay{5};

  /// Crash this global rank at its `crash_at_call`-th MPI call (1-based),
  /// raising `crash_outcome` as if the target itself had faulted there.
  /// -1 = no crash.
  int crash_rank = -1;
  std::int64_t crash_at_call = 1;
  rt::Outcome crash_outcome = rt::Outcome::kSegfault;

  /// Stall this global rank at its `stall_at_collective`-th collective
  /// (1-based): the rank never deposits its contribution, so the whole job
  /// ends as a timeout.  -1 = no stall.
  int stall_rank = -1;
  std::int64_t stall_at_collective = 1;

  [[nodiscard]] bool enabled() const {
    return drop_rate > 0.0 || delay_rate > 0.0 || crash_rank >= 0 ||
           stall_rank >= 0;
  }
};

/// Thrown on the victim rank when a crash fires.  A SimulatedFault, so the
/// launcher handles it exactly like a target fault: the victim reports the
/// injected outcome and the job aborts, unwinding peers to kAborted.
class InjectedFault : public rt::SimulatedFault {
 public:
  InjectedFault(rt::Outcome outcome, const std::string& what)
      : rt::SimulatedFault(outcome, what) {}
};

/// Per-job chaos state: one engine per World, created from the launch
/// spec's FaultPlan.  All decision functions are deterministic per rank.
class ChaosEngine {
 public:
  ChaosEngine(const FaultPlan& plan, int nprocs);

  /// Called at every MPI entry point of `global_rank`.  May throw
  /// InjectedFault (crash) or park the rank until the job dies (collective
  /// stall — exits via JobAborted from World::check_alive).
  void on_mpi_call(World& world, int global_rank, bool collective);

  /// Whether the next outgoing message of `src_global` is dropped.
  [[nodiscard]] bool should_drop(int src_global);

  /// Delay to apply to the next outgoing message of `src_global`
  /// (zero = deliver immediately).
  [[nodiscard]] std::chrono::milliseconds next_delay(int src_global);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  [[nodiscard]] double hash01(std::uint64_t stream, std::uint64_t n) const;

  FaultPlan plan_;
  std::vector<std::int64_t> calls_;
  std::vector<std::int64_t> collectives_;
  std::vector<std::int64_t> sends_;
};

}  // namespace compi::minimpi
