// §VI-A — the four bugs COMPI uncovered in SUSY-HMC.
//
// Runs a COMPI campaign on mini-SUSY-HMC, reports each discovered bug with
// its error-inducing inputs, then *replays* the FPE trigger at 1/2/3/4
// processes to confirm the paper's observation that it manifests with 2 or
// 4 processes but not with 1 or 3.  Finally re-tests the fixed build.
#include <iostream>

#include "bench/bench_util.h"
#include "compi/driver.h"
#include "compi/fixed_run.h"
#include "targets/targets.h"

int main(int argc, char** argv) {
  using namespace compi;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner(
      "SVI-A: bugs uncovered in SUSY-HMC",
      "three wrong-sizeof malloc segfaults + one division-by-zero that "
      "needs 2 or 4 processes",
      args.full);

  const TargetInfo buggy = targets::make_mini_susy_target();
  CampaignOptions opts;
  opts.seed = args.seed;
  opts.iterations = args.full ? 1500 : 500;
  opts.dfs_phase_iterations = 50;

  const CampaignResult result = Campaign(buggy, opts).run();
  std::cout << "campaign: " << result.iterations.size() << " iterations, "
            << TablePrinter::pct(result.coverage_rate) << " coverage\n\n";

  TablePrinter table({"#", "Kind", "Message", "First iter", "nprocs",
                      "Occurrences"});
  int i = 1;
  for (const BugRecord& bug : result.bugs) {
    table.add_row({std::to_string(i++), rt::to_string(bug.outcome),
                   bug.message.substr(0, 48), std::to_string(bug.first_iteration),
                   std::to_string(bug.nprocs),
                   std::to_string(bug.occurrences)});
  }
  table.print(std::cout);

  // Replay the FPE trigger across process counts (paper: "it manifests
  // with 2 or 4 processes but it does not occur with 1 or 3").
  std::cout << "\nFPE replay (nt = even multiple of nprocs):\n";
  TablePrinter replay({"nprocs", "outcome (buggy)", "outcome (fixed)"});
  const TargetInfo fixed = targets::make_mini_susy_target(5, false);
  for (int np : {1, 2, 3, 4}) {
    auto in = targets::mini_susy_defaults(np);
    in["nt"] = np * 2;  // even and divisible
    const auto b = run_fixed(buggy, in, {.nprocs = np});
    const auto f = run_fixed(fixed, in, {.nprocs = np});
    replay.add_row({std::to_string(np), rt::to_string(b.job_outcome()),
                    rt::to_string(f.job_outcome())});
  }
  replay.print(std::cout);

  // Post-fix retest: the fixed build must be bug-free under the same
  // campaign (the "fix and continue testing" workflow).
  const CampaignResult clean = Campaign(fixed, opts).run();
  std::cout << "\nfixed build campaign: " << clean.bugs.size()
            << " bugs found (expected 0), coverage "
            << TablePrinter::pct(clean.coverage_rate) << "\n";

  // Detection under environment noise: the same hunt with injected message
  // drops.  Retries absorb the induced timeouts and the confirmation
  // replay separates real bugs (reproduce without chaos) from flaky ones.
  std::cout << "\ncampaign under injected message-drop noise:\n";
  TablePrinter noise({"drop rate", "bugs", "flaky", "retries", "coverage"});
  for (const double rate : {0.0, 0.05, 0.2}) {
    CampaignOptions noisy = opts;
    noisy.iterations = args.full ? 500 : 150;
    noisy.chaos.seed = args.seed + 1;
    noisy.chaos.drop_rate = rate;
    noisy.retry_max = 2;
    noisy.test_timeout = std::chrono::milliseconds(500);
    const CampaignResult r = Campaign(buggy, noisy).run();
    std::size_t flaky = 0;
    for (const BugRecord& bug : r.bugs) flaky += bug.flaky ? 1 : 0;
    noise.add_row({TablePrinter::num(rate, 3), std::to_string(r.bugs.size()),
                   std::to_string(flaky),
                   std::to_string(r.transient_retries),
                   TablePrinter::pct(r.coverage_rate)});
  }
  noise.print(std::cout);
  return 0;
}
