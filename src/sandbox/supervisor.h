// Process-isolated run sandbox: contain real crashes and hangs.
//
// The paper's artifact launches targets as separate OS processes under
// `mpiexec`, so a segfaulting or wedged target can never take the tester
// down with it.  MiniMPI runs every rank as a fiber on the launching
// thread, in the tester's own address space; a *genuine* SIGSEGV, heap
// smash, or uninstrumented infinite loop (one that executes no branch
// events, evading both the step budget and the cooperative world deadline)
// would kill or hang the whole campaign.  run_sandboxed() restores the
// paper's process boundary per iteration: fork() the whole MiniMPI world
// into a child, run the launcher there, and stream the results back over a
// pipe (wire.h).  The fork server (fork_server.h) keeps the same boundary
// but reuses one child across clean runs; a campaign reaches
// run_sandboxed only through it, as its cold-fork fallback.  The parent
//  * enforces a wall-clock hang timeout (SIGKILL on expiry) and a CPU
//    rlimit (plus an optional address-space rlimit) on the child,
//  * maps real termination signals onto the existing rt::Outcome taxonomy
//    (SIGSEGV/SIGBUS -> kSegfault, SIGFPE -> kFpe, SIGABRT -> kAssert,
//    SIGKILL/SIGXCPU -> kTimeout),
//  * harvests whatever coverage the child flushed before dying, via a
//    MAP_SHARED byte-per-branch mirror installed as the child's coverage
//    sink (runtime/coverage_sink.h).  Sink bytes carry the marking rank
//    (rank + 1, first-write-wins), so harvested coverage is attributed to
//    the rank that executed each branch, not lumped onto the focus.
//
// On platforms without fork() the sandbox degrades to the in-process
// launcher (SandboxStats::forked stays false), so in-process mode remains
// the default for tests and non-POSIX builds.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "minimpi/launcher.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define COMPI_SANDBOX_POSIX 1
#endif

namespace compi::sandbox {

struct Frame;

struct SandboxOptions {
  /// Wall-clock budget for the whole child process; past it the child is
  /// SIGKILLed and the run reports kTimeout.  0 derives 2x the launch
  /// spec's cooperative timeout plus 2 s headroom, so the in-child
  /// watchdog always gets the first chance to report a simulated hang.
  std::chrono::milliseconds hang_timeout{0};
  /// RLIMIT_AS for the child in MiB; 0 = inherit.  Ignored under ASan
  /// (the shadow mapping needs terabytes of address space).
  int child_mem_mb = 0;
  /// CPU budget of one run in whole seconds, enforced through RLIMIT_CPU
  /// (SIGXCPU, reported as kTimeout); 0 derives it from the hang timeout
  /// (+ 2 s) as a backstop against scheduler starvation of the parent's
  /// wall-clock watchdog.
  int child_cpu_s = 0;
};

/// How one sandboxed run terminated and what was salvaged from it.
struct SandboxStats {
  bool forked = false;       // false: fell back to the in-process launcher
  bool signal_kill = false;  // the child died to a real signal
  bool hang_kill = false;    // the supervisor SIGKILLed a wedged child
  int term_signal = 0;       // terminating signal when signal_kill
  /// Bytes recovered from the dead child: pipe stream plus harvested
  /// shared-map coverage bytes.
  std::size_t harvest_bytes = 0;
  /// Branch ids whose coverage was recovered from the shared map instead
  /// of a delivered rank log (sorted ascending; empty when the child
  /// delivered a full result).  The attribution ledger uses this to flag
  /// first hits that survived a child death.
  std::vector<sym::BranchId> harvested;
};

/// True when this build can actually fork a child (POSIX).
[[nodiscard]] bool sandbox_supported();

/// Maps a real termination signal onto the simulated-fault taxonomy, so
/// sandboxed outcomes round-trip through to_string/outcome_from_string and
/// replay exactly like in-process ones.
[[nodiscard]] rt::Outcome outcome_for_signal(int sig);

/// Runs one test in a forked child.  Never throws target faults and never
/// lets the child's death propagate: a crashed or hung child yields a
/// synthesized RunResult carrying the mapped outcome and the harvested
/// coverage, distributed to the per-rank logs named by the sink's rank
/// stamps (unattributable stamps fall back to the reporting rank).
[[nodiscard]] minimpi::RunResult run_sandboxed(
    const minimpi::LaunchSpec& spec, const rt::BranchTable& table,
    const SandboxOptions& options, SandboxStats* stats = nullptr);

// Shared machinery between the per-iteration supervisor (run_sandboxed) and
// the fork server (fork_server.h).  Both arm a child the same way, run the
// launcher through launch_frames, watch it against the same hang deadline,
// and interpret the frame stream plus wait status through
// interpret_child_exit, so a crash in the fork server's executor is
// reported exactly like a crash in a cold child.
namespace detail {

/// Human-readable name for the signals the sandbox maps (SIGSEGV, ...).
[[nodiscard]] const char* signal_name(int sig);

/// The wall-clock kill deadline for one child: the explicit option, or 2x
/// the spec's cooperative timeout plus 2 s headroom.
[[nodiscard]] std::chrono::milliseconds derive_hang(
    const SandboxOptions& options, const minimpi::LaunchSpec& spec);

/// Builds the job the campaign records when the child died without
/// delivering a result frame (mapped outcome on the reporting rank,
/// kAborted peers, shared-map harvest distributed by rank stamp).
[[nodiscard]] minimpi::RunResult synthesize_dead_child(
    const minimpi::LaunchSpec& spec, const rt::BranchTable& table,
    const unsigned char* map, std::size_t map_size, rt::Outcome outcome,
    std::string message);

#ifdef COMPI_SANDBOX_POSIX

/// Full write() loop; gives up silently once the reader is gone.
void write_all(int fd, const std::string& bytes);

/// Arms a freshly forked child: the fatal-signal reporter (a kSignal frame
/// to `signal_fd`), the address-space rlimit and the shared coverage sink.
void arm_child(const SandboxOptions& options, int signal_fd,
               unsigned char* map, std::size_t map_size);

/// Sets the soft RLIMIT_CPU to the CPU this process has used so far plus
/// one run's budget (SandboxOptions::child_cpu_s, or the hang deadline
/// + 2 s), rounded up to whole seconds.  Called before every run.
void fence_cpu(const SandboxOptions& options, std::chrono::milliseconds hang);

/// Runs the launcher and appends to `out` a kRegistry frame with the
/// variables the run interned (when it interned any), then its kResult
/// frame (or a kError frame if it threw).  True when the job outcome is
/// kOk.
bool launch_frames(const minimpi::LaunchSpec& spec,
                   const rt::BranchTable& table, std::string& out);

/// Body of a cold sandboxed child: arms it, fences its CPU, runs the
/// launcher, streams the R/E + V frames to write_fd, and _exit()s.  Never
/// returns.
[[noreturn]] void child_main(const minimpi::LaunchSpec& spec,
                             const rt::BranchTable& table,
                             const SandboxOptions& options,
                             std::chrono::milliseconds hang, int read_fd,
                             int write_fd, unsigned char* map,
                             std::size_t map_size);

/// Turns a finished run's frames (`stream_bytes` long on the wire) + wait
/// status into the campaign's RunResult, updating `st` (signal/hang kills,
/// harvest accounting).  Precedence: hang kill > real signal > decoded
/// result > error frame > exit-without-result.  `status` is the raw
/// waitpid status; 0 for a run whose process lives on.
[[nodiscard]] minimpi::RunResult interpret_child_exit(
    const minimpi::LaunchSpec& spec, const rt::BranchTable& table,
    std::vector<Frame>& frames, std::size_t stream_bytes,
    const unsigned char* map, std::size_t map_size, bool timed_out,
    int status, double wall, std::chrono::milliseconds hang,
    SandboxStats& st);

#endif  // COMPI_SANDBOX_POSIX

}  // namespace detail

}  // namespace compi::sandbox
