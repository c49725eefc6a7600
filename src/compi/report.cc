#include "compi/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "compi/driver.h"
#include "obs/metrics.h"

namespace compi {

PhaseBreakdown compute_phase_breakdown(const CampaignResult& result) {
  PhaseBreakdown b;
  // Worker phases are summed over workers, so they are measured against
  // every worker's wall clock, not the campaign's once.
  b.total_seconds =
      static_cast<double>(result.workers_used) * result.total_seconds;

  std::vector<double> exec_us;
  std::vector<double> solve_us;
  exec_us.reserve(result.iterations.size());
  solve_us.reserve(result.iterations.size());
  for (const IterationRecord& r : result.iterations) {
    exec_us.push_back(r.exec_seconds * 1e6);
    solve_us.push_back(r.solve_seconds * 1e6);
  }

  const auto phase = [&](std::string name, double total,
                         const std::vector<double>& samples) {
    PhaseStats p;
    p.name = std::move(name);
    p.total_seconds = total;
    p.share = b.total_seconds > 0.0 ? total / b.total_seconds : 0.0;
    if (!samples.empty()) {
      p.p50_us = obs::percentile(samples, 0.50);
      p.p95_us = obs::percentile(samples, 0.95);
      p.max_us = *std::max_element(samples.begin(), samples.end());
    }
    return p;
  };

  b.phases.push_back(
      phase("execute", result.total_exec_seconds, exec_us));
  b.phases.push_back(phase("solve", result.total_solve_seconds, solve_us));
  // Everything the driver does between runs: planning, instrumentation
  // replay, coverage merging, logging, and under --workers the epoch
  // barrier's wait.  Clamped at zero — with sub-ms iterations the measured
  // phases can overshoot the wall clock slightly.
  const double overhead =
      std::max(0.0, b.total_seconds - result.total_exec_seconds -
                        result.total_solve_seconds);
  b.phases.push_back(phase("overhead", overhead, {}));
  return b;
}

void print_phase_breakdown(std::ostream& os, const PhaseBreakdown& b) {
  TablePrinter table({"phase", "seconds", "share", "p50(us)", "p95(us)",
                      "max(us)"});
  const auto us = [](double v) {
    return v < 0.0 ? std::string("-") : TablePrinter::num(v, 0);
  };
  for (const PhaseStats& p : b.phases) {
    table.add_row({p.name, TablePrinter::num(p.total_seconds, 3),
                   TablePrinter::pct(p.share), us(p.p50_us), us(p.p95_us),
                   us(p.max_us)});
  }
  table.print(os);
}

void print_sandbox_summary(std::ostream& os, const CampaignResult& result) {
  if (result.sandbox_runs == 0) return;
  os << "sandbox           : " << result.sandbox_runs << " sandboxed runs, "
     << result.sandbox_signal_kills << " signal kills, "
     << result.sandbox_hang_kills << " hang kills, "
     << TablePrinter::bytes(result.sandbox_harvest_bytes) << " harvested\n";
  os << "fork server       : " << result.warm_spawns << " warm spawns, "
     << result.cold_forks << " cold forks, " << result.fork_server_restarts
     << " restarts\n";
}

void print_matchings_summary(std::ostream& os, const CampaignResult& result) {
  if (result.interleavings_enqueued == 0 && result.deadlocks_found == 0 &&
      result.orphan_messages_found == 0) {
    return;
  }
  os << "matchings         : " << result.interleavings_enqueued
     << " interleavings enqueued, " << result.interleavings_run << " run, "
     << result.interleavings_pruned << " pruned, "
     << result.interleavings_capped << " capped; " << result.deadlocks_found
     << " deadlocks, " << result.orphan_messages_found
     << " orphan messages\n";
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << "| " << std::left << std::setw(static_cast<int>(widths[c]))
         << (c < row.size() ? row[c] : "") << ' ';
    }
    os << "|\n";
  };
  print_row(headers_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << '|' << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::num(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

std::string TablePrinter::pct(double ratio, int digits) {
  return num(ratio * 100.0, digits) + '%';
}

std::string TablePrinter::bytes(std::size_t n) {
  const double d = static_cast<double>(n);
  if (n >= 1024ull * 1024 * 1024) return num(d / (1024.0 * 1024 * 1024)) + "G";
  if (n >= 1024ull * 1024) return num(d / (1024.0 * 1024)) + "M";
  if (n >= 1024) return num(d / 1024.0) + "K";
  return num(d, 0) + "B";
}

}  // namespace compi
