#include "minimpi/fault_plan.h"

#include <string>

#include "minimpi/world.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace compi::minimpi {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ChaosEngine::ChaosEngine(const FaultPlan& plan, int nprocs)
    : plan_(plan),
      calls_(static_cast<std::size_t>(nprocs), 0),
      collectives_(static_cast<std::size_t>(nprocs), 0),
      sends_(static_cast<std::size_t>(nprocs), 0) {}

double ChaosEngine::hash01(std::uint64_t stream, std::uint64_t n) const {
  const std::uint64_t h =
      splitmix64(plan_.seed ^ splitmix64(stream) ^ splitmix64(n * 0x51ed2701ULL));
  // 53 high bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool ChaosEngine::should_drop(int src_global) {
  // Counts every send, drops or not: next_delay draws from the count.
  const std::int64_t n = sends_[static_cast<std::size_t>(src_global)]++;
  if (plan_.drop_rate <= 0.0) return false;
  return hash01(0xd309 + static_cast<std::uint64_t>(src_global),
                static_cast<std::uint64_t>(n)) < plan_.drop_rate;
}

std::chrono::milliseconds ChaosEngine::next_delay(int src_global) {
  if (plan_.delay_rate <= 0.0) return std::chrono::milliseconds{0};
  // Reads the count should_drop just advanced (a separate stream, so the
  // two decisions for one send are independent).
  const std::int64_t n = sends_[static_cast<std::size_t>(src_global)];
  const bool hit = hash01(0xde1a + static_cast<std::uint64_t>(src_global),
                          static_cast<std::uint64_t>(n)) < plan_.delay_rate;
  return hit ? plan_.delay : std::chrono::milliseconds{0};
}

void ChaosEngine::on_mpi_call(World& world, int global_rank, bool collective) {
  const auto rank = static_cast<std::size_t>(global_rank);
  const std::int64_t call = ++calls_[rank];
  if (global_rank == plan_.crash_rank && call == plan_.crash_at_call) {
    static obs::Counter& crashes = obs::registry().counter(
        "compi_chaos_crashes_total", "Crash faults injected by chaos plans");
    crashes.inc();
    // Lands on the victim rank's track: this is the event the trace-level
    // fault-injection integration test looks for.
    obs::instant(obs::Cat::kChaos, "chaos_crash", "call", call);
    throw InjectedFault(
        plan_.crash_outcome,
        "injected " + std::string(rt::to_string(plan_.crash_outcome)) +
            " on rank " + std::to_string(global_rank) + " at MPI call " +
            std::to_string(call));
  }
  if (collective && global_rank == plan_.stall_rank) {
    const std::int64_t coll = ++collectives_[rank];
    if (coll == plan_.stall_at_collective) {
      static obs::Counter& stalls = obs::registry().counter(
          "compi_chaos_stalls_total", "Stall faults injected by chaos plans");
      stalls.inc();
      obs::instant(obs::Cat::kChaos, "chaos_stall", "collective", coll);
      // Never arrive: park until a peer's fault or the job's end unwinds
      // the job.  check_alive raises JobAborted.
      for (;;) {
        world.check_alive();
        world.park();
      }
    }
  }
}

}  // namespace compi::minimpi
