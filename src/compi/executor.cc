#include "compi/executor.h"

#include <chrono>

namespace compi {

Executor::Executor(const rt::BranchTable& table, const CampaignOptions& options)
    : table_(table) {
  if (!options.isolate) return;
  sandbox::ForkServerOptions fso;
  fso.sandbox.hang_timeout = std::chrono::milliseconds(options.hang_timeout_ms);
  fso.sandbox.child_mem_mb = options.child_mem_mb;
  fork_server_.emplace(table, fso);
}

void Executor::start(const minimpi::Program& program) {
  if (!fork_server_) return;
  minimpi::LaunchSpec prototype;
  prototype.program = program;
  (void)fork_server_->start(prototype);
}

minimpi::RunResult Executor::run(const minimpi::LaunchSpec& spec,
                                 ExecReport& report) {
  report = ExecReport{};
  if (!fork_server_) return minimpi::launch(spec, table_);
  const std::uint64_t restarts_before = fork_server_->stats().restarts;
  minimpi::RunResult r = fork_server_->run(spec, &report.sandbox, &report.warm);
  report.server_deaths = fork_server_->stats().restarts - restarts_before;
  report.server_restarts = fork_server_->stats().restarts;
  report.server_degraded = fork_server_->degraded();
  report.spawn_seconds = fork_server_->stats().last_spawn_seconds;
  report.cold = !report.warm && report.sandbox.forked;
  return r;
}

}  // namespace compi
