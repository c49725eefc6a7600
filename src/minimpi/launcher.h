// MPMD job launcher: the in-process `mpiexec` (paper §III-D).
//
// The paper launches `mpiexec -n i ex2 : -n 1 ex1 : -n s-i-1 ex2` so that
// exactly one process — the focus, at a chosen global rank — runs the
// heavily instrumented binary while the rest run the lightly instrumented
// one.  Here the two binaries are the two RuntimeContext modes, and the
// launch spec's (nprocs, focus) plays the (s, i) role.  Each rank is a
// fiber on the calling thread (fiber.h); target faults become per-rank
// outcomes; a faulting rank aborts the job, unwinding peers blocked in MPI
// calls (as mpiexec kills them).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "minimpi/comm.h"
#include "minimpi/fault_plan.h"
#include "runtime/context.h"
#include "runtime/test_log.h"

namespace compi::minimpi {

/// The SPMD target entry point: every rank runs this with its own context
/// and world-communicator view.
using Program = std::function<void(rt::RuntimeContext&, Comm&)>;

struct LaunchSpec {
  Program program;
  int nprocs = 1;
  /// Global rank of the focus process (runs heavy instrumentation).
  /// -1 launches every rank light (pure coverage runs, e.g. random testing).
  int focus = 0;
  /// One-way instrumentation ablation (§IV-B): every rank runs heavy.
  bool one_way = false;
  rt::VarRegistry* registry = nullptr;
  const solver::Assignment* inputs = nullptr;
  std::uint64_t rng_seed = 1;
  std::int64_t step_budget = 2'000'000;
  bool reduction = true;
  bool mark_mpi_vars = true;
  /// Per-test timeout (paper §V allows a user-specified timeout): a budget
  /// on the job's virtual clock (world.h), which MPI calls and chaos delays
  /// advance.  A run that uses it up ends as kTimeout.
  std::chrono::milliseconds timeout{30'000};
  /// Environment-level fault injection (disabled by default).
  FaultPlan chaos;
  /// Trace-track offset: rank r records on track `track_base + r + 1`
  /// (track_base itself is the owning driver/worker's track).  Parallel
  /// campaign workers use disjoint bases so concurrent jobs don't
  /// interleave on the same trace rows.
  int track_base = 0;
  /// Routes every receive through the match scheduler: wildcard decisions
  /// are recorded (RunResult::match_trace), `match_plan` choices are
  /// replayed, and deadlock / orphan-message detection become exact.  Off
  /// by default so the default pipeline's behavior is byte-identical.
  bool match_schedule = false;
  /// Prescribed wildcard choices to replay (used when match_schedule).
  MatchPlan match_plan;
};

struct RankResult {
  rt::Outcome outcome = rt::Outcome::kOk;
  std::string message;
  rt::TestLog log;
};

struct RunResult {
  std::vector<RankResult> ranks;
  int focus = 0;
  double wall_seconds = 0.0;
  /// Wildcard decisions taken this run, in global match order (only when
  /// the spec enabled match_schedule).
  std::vector<MatchRecord> match_trace;
  /// True when a prescribed match choice had to be abandoned mid-replay
  /// (the observed prefix diverged from the plan's source run).
  bool match_diverged = false;

  /// The job-level outcome: the first real fault across ranks, else kOk.
  [[nodiscard]] rt::Outcome job_outcome() const;
  [[nodiscard]] std::string job_message() const;
  /// Log of the focus rank (valid when the spec had focus >= 0).
  [[nodiscard]] const rt::TestLog& focus_log() const;
  /// Branch coverage across ALL ranks (the "all recorders" half of the
  /// framework, §III).
  [[nodiscard]] rt::CoverageBitmap merged_coverage() const;
};

/// Runs one test: nprocs rank fibers, scheduled on the calling thread,
/// executing spec.program to completion (or fault / abort / timeout).  A
/// job in which no rank can ever run again ends at once: as a deadlock
/// under the match scheduler, else as the deadline's timeout.  Never
/// throws target faults — they are captured per rank.
[[nodiscard]] RunResult launch(const LaunchSpec& spec,
                               const rt::BranchTable& table);

}  // namespace compi::minimpi
