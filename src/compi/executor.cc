#include "compi/executor.h"

#include <chrono>

namespace compi {

Executor::Executor(const rt::BranchTable& table, const CampaignOptions& options)
    : table_(table),
      isolate_(options.isolate),
      batch_reset_(options.batch_reset),
      batch_gate_(options.batch_warmup) {
  sandbox_options_.hang_timeout =
      std::chrono::milliseconds(options.hang_timeout_ms);
  sandbox_options_.child_mem_mb = options.child_mem_mb;
  if (isolate_ && options.fork_server) {
    sandbox::ForkServerOptions fso;
    fso.sandbox = sandbox_options_;
    fso.max_restarts = options.fork_server_restarts;
    fork_server_.emplace(table, fso);
  }
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
  if (!isolate_) return minimpi::launch(spec, table_);
  if (batch_reset_ && batch_gate_.ready()) {
    report.batch = true;
    minimpi::RunResult r = sandbox::run_batch_reset(spec, table_);
    if (r.job_outcome() == rt::Outcome::kOk) {
      batch_gate_.record_clean();
    } else {
      batch_gate_.record_fault();
    }
    return r;
  }
  sandbox::SandboxStats& st = report.sandbox;
  minimpi::RunResult r;
  if (fork_server_) {
    const std::uint64_t restarts_before = fork_server_->stats().restarts;
    r = fork_server_->run(spec, &st, &report.warm);
    report.server_deaths = fork_server_->stats().restarts - restarts_before;
    report.server_restarts = fork_server_->stats().restarts;
    report.server_degraded = fork_server_->degraded();
    report.spawn_seconds = fork_server_->stats().last_spawn_seconds;
    report.cold = !report.warm && st.forked;
  } else {
    r = sandbox::run_sandboxed(spec, table_, sandbox_options_, &st);
  }
  if (batch_reset_ && st.forked) {
    if (!st.signal_kill && !st.hang_kill &&
        r.job_outcome() == rt::Outcome::kOk) {
      batch_gate_.record_clean();
    } else {
      batch_gate_.record_fault();
    }
  }
  return r;
}

}  // namespace compi
