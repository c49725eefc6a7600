// Small fixed-width table / CSV helpers shared by the bench binaries, plus
// the per-phase campaign profile (paper Table 4-style cost accounting).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace compi {

struct CampaignResult;

/// Where one campaign phase's time went, with per-iteration latency
/// percentiles (microseconds; < 0 when not applicable, e.g. the synthetic
/// "overhead" phase has no per-iteration samples).
struct PhaseStats {
  std::string name;
  double total_seconds = 0.0;
  double share = 0.0;  // fraction of PhaseBreakdown::total_seconds, [0, 1]
  double p50_us = -1.0;
  double p95_us = -1.0;
  double max_us = -1.0;
};

/// Worker time split into execute / solve / overhead (everything else:
/// instrumentation replay, planning, logging, epoch barrier waits).
/// Shares sum to ~1 at any worker count.
struct PhaseBreakdown {
  std::vector<PhaseStats> phases;
  /// Worker-seconds: campaign wall time × workers used.
  double total_seconds = 0.0;
};

[[nodiscard]] PhaseBreakdown compute_phase_breakdown(
    const CampaignResult& result);

/// Renders the breakdown as a TablePrinter table ("Phase profile").
void print_phase_breakdown(std::ostream& os, const PhaseBreakdown& b);

/// Sandbox (--isolate) accounting: sandboxed runs, real-signal and hang
/// kills, bytes salvaged from dead children, then one fork-server line
/// (warm spawns, cold forks, restarts).  Prints nothing when the campaign
/// ran every test in-process.
void print_sandbox_summary(std::ostream& os, const CampaignResult& result);

/// One-line wildcard-matchings (--explore-matchings) accounting:
/// interleavings enqueued/run/pruned/capped plus deadlocks and orphan
/// messages found.  Prints nothing when the campaign never explored an
/// alternative matching and found no ordering bug.
void print_matchings_summary(std::ostream& os, const CampaignResult& result);

/// Minimal fixed-width table printer for paper-style rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  /// Formats a double with `digits` decimals.
  [[nodiscard]] static std::string num(double v, int digits = 1);
  /// Formats a ratio as a percentage string, e.g. 0.847 -> "84.7%".
  [[nodiscard]] static std::string pct(double ratio, int digits = 1);
  /// Human-readable byte count, e.g. 104857600 -> "100.0M".
  [[nodiscard]] static std::string bytes(std::size_t n);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace compi
