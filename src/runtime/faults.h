// Fault model of the simulated execution environment.
//
// The paper's COMPI observes target failures as process-level events:
// segmentation faults, floating-point exceptions (division by zero),
// assertion violations, and hangs killed by a per-test timeout (§V).  In
// this in-process reproduction those events are C++ exceptions thrown by
// the runtime and converted by the MiniMPI launcher into per-rank exit
// statuses, which the driver logs together with the error-inducing inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace compi::rt {

/// How one rank's execution of the target finished.
enum class Outcome : std::uint8_t {
  kOk,
  kSegfault,    // checked-allocator out-of-bounds access
  kFpe,         // integer division by zero
  kAssert,      // target assertion violated
  kTimeout,     // step budget / virtual job deadline / sandbox watchdog (hang)
  kMpiError,    // MPI substrate usage error
  kAborted,     // unwound because a *peer* faulted (mpiexec kills the job)
  kDeadlock,    // match scheduler proved a wait-for cycle (exact, no timeout)
  kOrphanMessage,  // sent messages never received by finalize
};

/// True for outcomes that indicate a bug in the target on *this* rank
/// (kAborted is collateral, not a fault of its own).
[[nodiscard]] constexpr bool is_fault(Outcome o) {
  return o != Outcome::kOk && o != Outcome::kAborted;
}

[[nodiscard]] const char* to_string(Outcome o);

/// Inverse of to_string: parses the serialized outcome name (as written to
/// bugs.txt / iterations.csv).  nullopt for unknown strings.
[[nodiscard]] std::optional<Outcome> outcome_from_string(std::string_view s);

/// Base class for simulated target faults.
class SimulatedFault : public std::runtime_error {
 public:
  SimulatedFault(Outcome outcome, const std::string& what)
      : std::runtime_error(what), outcome_(outcome) {}
  [[nodiscard]] Outcome outcome() const { return outcome_; }

 private:
  Outcome outcome_;
};

class SimulatedSegfault : public SimulatedFault {
 public:
  explicit SimulatedSegfault(const std::string& what)
      : SimulatedFault(Outcome::kSegfault, what) {}
};

class SimulatedFpe : public SimulatedFault {
 public:
  explicit SimulatedFpe(const std::string& what)
      : SimulatedFault(Outcome::kFpe, what) {}
};

class AssertionViolation : public SimulatedFault {
 public:
  explicit AssertionViolation(const std::string& what)
      : SimulatedFault(Outcome::kAssert, what) {}
};

class StepBudgetExceeded : public SimulatedFault {
 public:
  explicit StepBudgetExceeded(const std::string& what)
      : SimulatedFault(Outcome::kTimeout, what) {}
};

class MpiUsageError : public SimulatedFault {
 public:
  explicit MpiUsageError(const std::string& what)
      : SimulatedFault(Outcome::kMpiError, what) {}
};

/// Thrown on the rank whose blocking call completed a wait-for cycle: the
/// match scheduler proved every live rank blocked with no feasible message,
/// so the job can never progress.  Exact, unlike the deadline verdict
/// (kTimeout) that ends a blocked job without the scheduler.
class DeadlockDetected : public SimulatedFault {
 public:
  explicit DeadlockDetected(const std::string& what)
      : SimulatedFault(Outcome::kDeadlock, what) {}
};

}  // namespace compi::rt
