// One campaign worker's test-execution engine (the launch step of §III-D).
//
// Every test a worker runs funnels through Executor::run, which takes one
// of two paths:
//   * an in-process MiniMPI launch (the default, no --isolate);
//   * --isolate: the fork server's persistent executor, which keeps the
//     paper's process boundary.  ForkServer itself cold-forks a run only
//     as its internal fallback (a dead server, an exhausted restart
//     budget, or a build without fork()).
//
// An Executor belongs to exactly one worker and is NOT thread-safe: its
// fork server child is forked by start() before the workers start and
// then serves that worker's thread alone.  It
// reports what each run did in an ExecReport and leaves the campaign-wide
// accounting (result counters, metrics, journal) to the caller.
#pragma once

#include <cstdint>
#include <optional>

#include "compi/options.h"
#include "minimpi/launcher.h"
#include "sandbox/fork_server.h"
#include "sandbox/supervisor.h"

namespace compi {

/// What one Executor::run did.
struct ExecReport {
  bool warm = false;  // ran in the fork server's persistent executor
  bool cold = false;  // the fork server fell back to a cold fork
  /// Fork-server deaths absorbed during this run, and the server's state
  /// afterwards (for the restart journal event).
  std::uint64_t server_deaths = 0;
  std::uint64_t server_restarts = 0;
  bool server_degraded = false;
  /// Warm-spawn latency (valid when `warm`).
  double spawn_seconds = 0.0;
  /// The sandboxed child's fate; `sandbox.forked` is false for in-process
  /// runs.
  sandbox::SandboxStats sandbox;
};

class Executor {
 public:
  Executor(const rt::BranchTable& table, const CampaignOptions& options);

  /// Forks the fork server (under --isolate) with `program` as its
  /// snapshot; call on a thread that is still the process's only one.
  void start(const minimpi::Program& program);

  [[nodiscard]] minimpi::RunResult run(const minimpi::LaunchSpec& spec,
                                       ExecReport& report);

 private:
  const rt::BranchTable& table_;
  /// Engaged exactly under --isolate.
  std::optional<sandbox::ForkServer> fork_server_;
};

}  // namespace compi
