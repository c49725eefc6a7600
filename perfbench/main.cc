// compi_perfbench: the campaign benchmark.
//
//   compi_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                   --work-dir=DIR [--scale=F]
//
// Drives compi::Campaign::run() from the library on one named workload and
// prints one JSON object (metrics, correctness verdict, stamp) as the last
// line of stdout; progress goes to stderr.  perfbench/run.py builds this
// binary, checks the pinned references and prints the final result line.
//
// Untraced (--trace=0): fixed-budget campaigns with seeds 1000 * N + k run
// one after another, each followed by a rest as long as itself, until S
// seconds have passed.  Before each one, a burst of one-iteration
// campaigns times set-up.  Throughput is the median over the campaigns.
//
// Traced (--trace=1): the target program is wrapped so every rank run
// records a span; one traced campaign is compared against an untraced
// twin, probes time the MiniMPI launcher, collectives and the fork
// server, and ablation campaigns with existing options price the session,
// checkpoint, journal, sandbox and parallel layers.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "compi/fixed_run.h"
#include "compi/report.h"
#include "compi/session.h"
#include "sandbox/fork_server.h"
#include "targets/targets.h"

namespace fs = std::filesystem;
using namespace compi;
using perfbench::median;
using perfbench::Metrics;
using perfbench::percentile;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  /// Budget multiplier (the smoke test runs tiny campaigns).
  double scale = 1.0;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else if (key == "--scale") {
      args.scale = std::atof(val.c_str());
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 && args.scale > 0;
}

// ---- workloads ----

struct Workload {
  std::string name;
  TargetInfo target;
  CampaignOptions opts;  // log_dir is filled in per campaign
  bool logged = false;   // logs into a session slot (see session_slot)
  /// Serial campaigns are deterministic in their seed: a repeat must
  /// reproduce coverage and bugs exactly.
  bool deterministic = true;
};

bool make_workload(const std::string& name, double scale, Workload& w) {
  w.name = name;
  int budget = 0;
  if (name == "susy-logged") {
    w.target = targets::make_mini_susy_target();
    w.opts.journal = true;
    w.logged = true;
    budget = 1000;
  } else if (name == "imb-inproc") {
    w.target = targets::make_mini_imb_target();
    budget = 1000;
  } else if (name == "hpl-isolate") {
    w.target = targets::make_mini_hpl_target(100);
    w.opts.isolate = true;
    budget = 400;
  } else if (name == "susy-workers2") {
    w.target = targets::make_mini_susy_target();
    w.opts.workers = 2;
    w.deterministic = false;
    budget = 6000;
  } else {
    return false;
  }
  w.opts.iterations = std::max(20, static_cast<int>(budget * scale));
  return true;
}

// ---- one campaign ----

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
};

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// CPU time of this process and of every child it has reaped (the fork
/// server reaps its grandchildren, so they are included).
Usage cpu_now() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return {tv_seconds(self.ru_utime) + tv_seconds(kids.ru_utime),
          tv_seconds(self.ru_stime) + tv_seconds(kids.ru_stime)};
}

/// Peak resident set of the campaign process.  Sandboxed children are left
/// out: their peak is the largest input the search happened to draw.
double peak_rss_mib() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

struct Run {
  CampaignResult result;
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  fs::path session;  // empty when unlogged
  fs::file_time_type started;  // file clock at the campaign's start

  [[nodiscard]] double iters() const {
    return static_cast<double>(result.iterations.size());
  }
  [[nodiscard]] double iters_per_s() const { return iters() / wall_s; }
};

/// Session directory `name` under the work dir.  Campaigns of the same
/// configuration reuse one directory: the session writer truncates and
/// rewrites every file it owns, so a reused directory ends up holding the
/// same session as a fresh one (plus stale rank logs of wider earlier
/// runs).  Reuse keeps inode allocation out of the timed window: on an ext4
/// root mounted with `discard`, creating a file costs from 15 us to over
/// 500 us of system time depending on recent deletions, which would make
/// the logged workload time the host filesystem instead of the campaign.
fs::path session_slot(const Args& args, const std::string& name) {
  return fs::path(args.work_dir) / "sessions" / name;
}

/// Runs one campaign (logged into `session` unless it is empty); only
/// Campaign::run() is inside the timed window.
Run run_campaign(const TargetInfo& target, CampaignOptions opts,
                 const fs::path& session) {
  Run r;
  r.session = session;
  opts.log_dir = session.string();
  Campaign campaign(target, opts);
  r.started = fs::file_time_type::clock::now();
  const Usage u0 = cpu_now();
  const auto t0 = Clock::now();
  r.result = campaign.run();
  r.wall_s = since(t0);
  const Usage u1 = cpu_now();
  r.user_s = u1.user_s - u0.user_s;
  r.sys_s = u1.sys_s - u0.sys_s;
  return r;
}

/// Fills a new session slot with one untimed campaign, so the first timed
/// campaign in a fresh checkout does not pay for creating its files.
void prime(const TargetInfo& target, const CampaignOptions& opts,
           const fs::path& session) {
  if (session.empty() || fs::exists(session / "summary.txt")) return;
  (void)run_campaign(target, opts, session);
}

// ---- output checks ----

/// Collects failed checks; a run is correct when none failed.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] std::size_t size() const { return failures_.size(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

std::string bug_key(const CampaignResult& r) {
  std::ostringstream os;
  for (const BugRecord& b : r.bugs) {
    os << b.first_iteration << ':' << rt::to_string(b.outcome) << ':'
       << b.message << ';';
  }
  return os.str();
}

/// Checks one campaign's outputs; returns false (and records why) on the
/// first class of failure.
bool check_run(const Workload& w, const Run& run, Checks& checks) {
  const std::size_t before = checks.size();
  const CampaignResult& r = run.result;
  checks.expect(r.iterations.size() ==
                    static_cast<std::size_t>(w.opts.iterations),
                w.name + ": campaign ran " + std::to_string(r.iterations.size()) +
                    " of " + std::to_string(w.opts.iterations) + " iterations");
  checks.expect(r.covered_branches > 0 &&
                    r.covered_branches <= r.reachable_branches,
                w.name + ": covered branches out of range");
  if (!run.session.empty()) {
    // The session on disk must agree with the in-memory result.
    const auto summary = read_summary(run.session / "summary.txt");
    auto field = [&](const char* k) {
      const auto it = summary.find(k);
      return it == summary.end() ? std::string("?") : it->second;
    };
    checks.expect(field("iterations") == std::to_string(r.iterations.size()) &&
                      field("covered_branches") ==
                          std::to_string(r.covered_branches) &&
                      field("bugs") == std::to_string(r.bugs.size()),
                  w.name + ": summary.txt disagrees with the result");
    const std::vector<LoggedBug> logged = read_bugs(run.session / "bugs.txt");
    bool bugs_ok = logged.size() == r.bugs.size();
    for (std::size_t i = 0; bugs_ok && i < logged.size(); ++i) {
      bugs_ok = logged[i].outcome == r.bugs[i].outcome &&
                logged[i].first_iteration == r.bugs[i].first_iteration &&
                logged[i].nprocs == r.bugs[i].nprocs;
    }
    checks.expect(bugs_ok, w.name + ": bugs.txt disagrees with the result");
    const auto ckpt = read_checkpoint(run.session);
    checks.expect(w.opts.checkpoint_interval == 0 ||
                      (ckpt.has_value() &&
                       ckpt->iterations.size() == r.iterations.size() &&
                       ckpt->covered.size() == r.covered_branches &&
                       ckpt->bugs.size() == r.bugs.size()),
                  w.name + ": checkpoint.txt disagrees with the result");
  }
  return checks.size() == before;
}

/// Replays every non-flaky bug with run_fixed and requires the same outcome.
void replay_bugs(const Workload& w, const CampaignResult& r, Checks& checks) {
  for (const BugRecord& bug : r.bugs) {
    if (bug.flaky) continue;
    std::map<std::string, std::int64_t> inputs;
    for (const auto& [k, v] : bug.named_inputs) {
      if (k.find('#') == std::string::npos) inputs[k] = v;
    }
    const auto replay =
        run_fixed(w.target, inputs, {.nprocs = bug.nprocs, .focus = bug.focus});
    checks.expect(replay.job_outcome() == bug.outcome,
                  w.name + ": bug does not replay: " + bug.message);
  }
}

/// Bytes of the regular files under `path` (or of `path` itself) last
/// written at or after `since`: what one campaign wrote into a reused
/// session directory.
std::uintmax_t tree_bytes(const fs::path& path, fs::file_time_type since,
                          std::uintmax_t* files = nullptr) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  auto count = [&](const fs::directory_entry& e) {
    if (e.is_regular_file(ec) && e.last_write_time(ec) >= since) {
      bytes += e.file_size(ec);
      if (files != nullptr) ++*files;
    }
  };
  if (!fs::is_directory(path, ec)) {
    count(fs::directory_entry(path, ec));
    return bytes;
  }
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    count(*it);
  }
  return bytes;
}

// ---- measurement ----

struct Outcome {
  Metrics metrics;
  Checks checks;
  int attempted = 0;
  std::size_t iterations = 0;
  std::size_t covered = 0;
  std::size_t bugs = 0;
  // Lowest coverage and bug count over the run's measured campaigns.
  std::size_t covered_min = 0;
  std::size_t bugs_min = 0;
  std::string trace_file;
};

/// Seed of the k-th campaign of a run: every campaign explores a different
/// part of the input space, so one run's figures average over many seeds.
std::uint64_t campaign_seed(std::uint64_t seed, int k) {
  return seed * 1000 + static_cast<std::uint64_t>(k);
}

/// Set-up cost: wall time to construct a Campaign and run it for one
/// iteration (fork server start, session creation, final exports).  Bursts
/// of samples are taken between the measured campaigns, so the median
/// covers the whole run rather than one moment of it.
class SetupTimer {
 public:
  SetupTimer(const Workload& w, const Args& args, Outcome& out)
      : w_(w), args_(args), out_(out), opts_(w.opts) {
    opts_.iterations = 1;
    if (w.logged) opts_.log_dir = session_slot(args, w.name + "-setup").string();
    sample(1);
    samples_.clear();  // the first campaign of the process warms lazy state
  }

  void sample(int reps) {
    for (int i = 0; i < reps; ++i) {
      opts_.seed = campaign_seed(args_.seed, next_++);
      const auto t0 = Clock::now();
      Campaign campaign(w_.target, opts_);
      const CampaignResult r = campaign.run();
      samples_.push_back(since(t0));
      ++out_.attempted;
      out_.checks.expect(r.iterations.size() == 1,
                         w_.name + ": one-iteration set-up campaign ran " +
                             std::to_string(r.iterations.size()));
    }
  }

  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  const Workload& w_;
  const Args& args_;
  Outcome& out_;
  CampaignOptions opts_;
  int next_ = 0;
  std::vector<double> samples_;
};

void untraced(const Workload& w, const Args& args, Outcome& out) {
  SetupTimer setup(w, args, out);
  const fs::path session = w.logged ? session_slot(args, w.name) : fs::path();
  CampaignOptions opts = w.opts;
  opts.seed = campaign_seed(args.seed, 0);
  prime(w.target, opts, session);

  // Campaigns with seeds 1000 * seed + k, until the next one would overrun.
  std::vector<Run> runs;
  const auto t0 = Clock::now();
  double last_s = 0.0;
  while (runs.size() < 3 || since(t0) + last_s < args.seconds) {
    const auto c0 = Clock::now();
    setup.sample(8);
    opts.seed = campaign_seed(args.seed, static_cast<int>(runs.size()));
    Run run = run_campaign(w.target, opts, session);
    ++out.attempted;
    check_run(w, run, out.checks);
    std::cerr << "  seed " << opts.seed << ": " << run.iters() << " iters in "
              << run.wall_s << " s (" << run.iters_per_s() << "/s)\n";
    // Rest as long as the campaign ran: back-to-back thread-heavy
    // campaigns drive the kernel into a slower state (8-thread launch
    // loops drop from 5500 to 3700 launches/s within seconds), and the
    // rest lets every campaign start from a similar state.
    std::this_thread::sleep_for(std::chrono::duration<double>(run.wall_s));
    runs.push_back(std::move(run));
    last_s = since(c0);
  }

  // Outputs: the first campaign's bugs replay, and a serial campaign
  // repeated with the same seed reproduces coverage and bugs exactly.
  const CampaignResult& first = runs.front().result;
  replay_bugs(w, first, out.checks);
  if (w.deterministic) {
    opts.seed = campaign_seed(args.seed, 0);
    const Run again = run_campaign(w.target, opts, session);
    ++out.attempted;
    out.checks.expect(again.result.covered_branches == first.covered_branches &&
                          bug_key(again.result) == bug_key(first),
                      w.name + ": same seed, different coverage or bugs");
  }

  std::vector<double> ips;
  double covered = 0.0;
  out.covered_min = first.covered_branches;
  out.bugs_min = first.bugs.size();
  for (const Run& r : runs) {
    ips.push_back(r.iters_per_s());
    covered += static_cast<double>(r.result.covered_branches);
    out.covered_min = std::min(out.covered_min, r.result.covered_branches);
    out.bugs_min = std::min(out.bugs_min, r.result.bugs.size());
  }
  out.metrics.add("iters_per_s", median(ips), "1/s");
  out.metrics.add("setup_s", setup.median_s(), "s");
  out.metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
  out.metrics.add("covered_branches",
                  covered / static_cast<double>(runs.size()), "count");
  out.iterations = first.iterations.size();
  out.covered = first.covered_branches;
  out.bugs = first.bugs.size();
}

// ---- probes (traced run) ----

const rt::BranchTable& probe_table() {
  static const rt::BranchTable table = [] {
    rt::BranchTable t;
    t.add_site("perfbench", "noop");
    t.finalize();
    return t;
  }();
  return table;
}

/// Median wall time of `fn` in microseconds, after `warm` untimed calls.
template <typename Fn>
std::vector<double> time_us(int warm, int reps, Fn&& fn) {
  for (int i = 0; i < warm; ++i) fn();
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    out.push_back(since(t0) * 1e6);
  }
  return out;
}

void probes(Metrics& m, Checks& checks) {
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  minimpi::LaunchSpec noop;
  noop.nprocs = 8;
  noop.focus = 0;
  noop.registry = &registry;
  noop.inputs = &inputs;
  noop.program = [](rt::RuntimeContext&, minimpi::Comm&) {};
  m.add("minimpi.noop_launch_us",
        median(time_us(10, 200, [&] {
          checks.expect(minimpi::launch(noop, probe_table()).job_outcome() ==
                            rt::Outcome::kOk,
                        "probe: empty 8-rank launch failed");
        })),
        "us");

  const TargetInfo imb = targets::make_mini_imb_target(10'000);
  auto allreduce = targets::mini_imb_defaults(/*benchmark=*/5, /*iters=*/50);
  allreduce["npmin"] = 8;
  m.add("minimpi.allreduce_us",
        median(time_us(2, 20, [&] {
          checks.expect(run_fixed(imb, allreduce, {.nprocs = 8}).job_outcome() ==
                            rt::Outcome::kOk,
                        "probe: 8-rank allreduce job failed");
        })) / 50.0,
        "us");

  std::vector<double> spawn_us;
  if (sandbox::sandbox_supported()) {
    const TargetInfo hpl = targets::make_mini_hpl_target();
    rt::VarRegistry hreg;
    minimpi::LaunchSpec spec;
    spec.program = hpl.program;
    spec.nprocs = 8;
    spec.focus = 0;
    spec.registry = &hreg;
    spec.inputs = &inputs;
    sandbox::ForkServer server(*hpl.table, {});
    bool warm = false;
    spawn_us = time_us(3, 100, [&] { (void)server.run(spec, nullptr, &warm); });
    checks.expect(warm, "probe: fork server did not spawn warm");
  }
  m.add("sandbox.warm_spawn_us_p50", median(spawn_us), "us");
  m.add("sandbox.warm_spawn_us_p99", percentile(spawn_us, 0.99), "us");
}

// ---- traced run ----

double us_per_iter(double wall_a, double wall_b, double iters) {
  return (wall_a - wall_b) * 1e6 / iters;
}

void traced(const Workload& w, const Args& args, Outcome& out) {
  CampaignOptions wopts = w.opts;
  wopts.seed = campaign_seed(args.seed, 0);
  // `slot` names the session directory of a logged variant ("" = unlogged).
  auto checked = [&](const TargetInfo& target, const CampaignOptions& opts,
                     const std::string& slot) {
    const fs::path session =
        slot.empty() ? fs::path() : session_slot(args, w.name + "-" + slot);
    prime(w.target, opts, session);
    Run run = run_campaign(target, opts, session);
    ++out.attempted;
    Workload as = w;
    as.opts = opts;
    check_run(as, run, out.checks);
    return run;
  };

  // Untraced twin first, then the traced campaign of the same workload.
  const std::string logged = w.logged ? "base" : "";
  const auto t0 = Clock::now();
  const Run base = checked(w.target, wopts, logged);
  perfbench::SpanRecorder recorder(w.opts.max_procs);
  const Run tr = checked(recorder.wrap(w.target), wopts, logged);
  // More untraced/traced pairs over half the run's time: the tracing
  // overhead is the ratio of the two medians.
  std::vector<double> off, on, user, sys;
  auto untraced_sample = [&](const Run& r) {
    off.push_back(r.iters_per_s());
    user.push_back(r.user_s * 1e6 / r.iters());
    sys.push_back(r.sys_s * 1e6 / r.iters());
  };
  untraced_sample(base);
  on.push_back(tr.iters_per_s());
  while (since(t0) < args.seconds / 2) {
    untraced_sample(checked(w.target, wopts, logged));
    perfbench::SpanRecorder scratch(w.opts.max_procs);
    on.push_back(checked(scratch.wrap(w.target), wopts, logged).iters_per_s());
  }

  // The sandbox's price on this workload: the same campaign with
  // `isolate` flipped.  A sandboxed workload's ranks run in a forked
  // grandchild, so its rank spans come from a traced in-process twin.
  CampaignOptions flip = wopts;
  flip.isolate = !wopts.isolate;
  const Run flipped = checked(w.target, flip, w.logged ? "flip" : "");
  // The untraced campaigns' median stands for the workload's wall time; the
  // first campaign of the process also pays for warming lazy state.
  const double base_wall = base.iters() / median(off);
  const double sandbox_cost =
      wopts.isolate ? us_per_iter(base_wall, flipped.wall_s, base.iters())
                    : us_per_iter(flipped.wall_s, base_wall, base.iters());
  const CampaignResult* spans_of = &tr.result;
  perfbench::SpanRecorder twin_recorder(w.opts.max_procs);
  perfbench::SpanRecorder* rec = &recorder;
  Run inproc;
  if (wopts.isolate) {
    inproc = checked(twin_recorder.wrap(w.target), flip, "");
    spans_of = &inproc.result;
    rec = &twin_recorder;
  }
  const perfbench::SpanAnalysis sa = rec->analyse(*spans_of);

  Metrics& m = out.metrics;
  const CampaignResult& r = base.result;
  const double iters = base.iters();
  m.add("targets.rank_exec_us_p50", median(sa.rank_exec_us), "us");
  m.add("targets.rank_exec_us_p99", percentile(sa.rank_exec_us, 0.99), "us");
  m.add("process.cpu_user_us_per_iter", median(user), "us");
  m.add("process.cpu_sys_us_per_iter", median(sys), "us");
  m.add("targets.launches_per_iter",
        static_cast<double>(sa.launches) /
            static_cast<double>(spans_of->iterations.size()),
        "ratio");
  m.add("minimpi.launch_gap_us_p50", median(sa.launch_gap_us), "us");
  m.add("minimpi.launch_gap_us_p99", percentile(sa.launch_gap_us, 0.99), "us");
  probes(m, out.checks);
  m.add("sandbox.cost_us_per_iter", sandbox_cost, "us");
  const double spawns = static_cast<double>(r.warm_spawns + r.cold_forks);
  m.add("sandbox.cold_fork_share",
        spawns > 0 ? static_cast<double>(r.cold_forks) / spawns : 0.0, "ratio");
  m.add("sandbox.server_restarts", static_cast<double>(r.fork_server_restarts),
        "count");

  std::vector<double> solve_us, csets;
  double nodes = 0.0;
  for (const IterationRecord& it : r.iterations) {
    solve_us.push_back(it.solve_seconds * 1e6);
    csets.push_back(static_cast<double>(it.constraint_set_size));
    nodes += static_cast<double>(it.solver_nodes);
  }
  m.add("solver.solve_us_p50", median(solve_us), "us");
  m.add("solver.solve_us_p99", percentile(solve_us, 0.99), "us");
  m.add("solver.nodes_per_iter", nodes / iters, "count");
  m.add("solver.constraint_set_p50", median(csets), "count");
  m.add("solver.retry_share", static_cast<double>(r.transient_retries) / iters,
        "ratio");
  m.add("solver.restart_share", static_cast<double>(r.restarts) / iters,
        "ratio");

  m.add("compi.between_launch_us_p50", median(sa.between_launch_us), "us");
  m.add("compi.between_launch_us_p99", percentile(sa.between_launch_us, 0.99),
        "us");
  double unattributed = 0.0;
  for (const PhaseStats& p : compute_phase_breakdown(r).phases) {
    if (p.name == "overhead") unattributed = p.share;
  }
  m.add("compi.unattributed_share", unattributed, "ratio");
  m.add("compi.bugs_found", static_cast<double>(r.bugs.size()), "count");

  // Session, checkpoint and journal: ablations with existing options.  On
  // an unlogged workload both sides of each difference run the same
  // configuration, so the figure reads no change.
  std::uintmax_t files = 0, session_bytes = 0;
  std::uintmax_t ckpt_bytes = 0, csv_bytes = 0, rank_bytes = 0, jbytes = 0;
  if (w.logged) {
    // The traced campaign ran last in the "base" slot: count what it wrote.
    session_bytes = tree_bytes(base.session, tr.started, &files);
    ckpt_bytes = tree_bytes(base.session / "checkpoint.txt", tr.started);
    csv_bytes = tree_bytes(base.session / "iterations.csv", tr.started);
    jbytes = tree_bytes(base.session / "journal.jsonl", tr.started);
    for (const auto& e : fs::directory_iterator(base.session)) {
      if (e.is_directory() &&
          e.path().filename().string().rfind("iter_", 0) == 0) {
        rank_bytes += tree_bytes(e.path(), tr.started);
      }
    }
  }
  CampaignOptions o = wopts;
  o.checkpoint_interval = 0;
  const Run no_ckpt = checked(w.target, o, w.logged ? "no-checkpoint" : "");
  o.journal = false;
  const Run unlogged = checked(w.target, o, "");
  o = wopts;
  o.journal = false;
  const Run no_journal = checked(w.target, o, w.logged ? "no-journal" : "");
  const double ckpt_us = us_per_iter(base_wall, no_ckpt.wall_s, iters);
  const double io_us = us_per_iter(no_ckpt.wall_s, unlogged.wall_s, iters);
  const double journal_us = us_per_iter(base_wall, no_journal.wall_s, iters);
  m.add("session.checkpoint_us_per_iter", ckpt_us, "us");
  m.add("session.io_us_per_iter", io_us, "us");
  m.add("session.checkpoint_bytes", static_cast<double>(ckpt_bytes), "B");
  m.add("session.rank_log_bytes", static_cast<double>(rank_bytes), "B");
  m.add("session.csv_bytes", static_cast<double>(csv_bytes), "B");
  m.add("session.files", static_cast<double>(files), "count");
  m.add("session.mib", static_cast<double>(session_bytes) / (1 << 20), "MiB");
  m.add("obs.journal_us_per_iter", journal_us, "us");
  m.add("obs.journal_bytes", static_cast<double>(jbytes), "B");

  // Parallel engine: speedup over one worker at the same budget.
  double speedup = 1.0;
  if (w.opts.workers > 1) {
    CampaignOptions o = wopts;
    o.workers = 1;
    const Run one = checked(w.target, o, "");
    speedup = median(off) / one.iters_per_s();
  }
  m.add("parallel.speedup", speedup, "ratio");
  m.add("parallel.dedup_skip_share",
        static_cast<double>(r.frontier_dedup_skips) / iters, "ratio");
  m.add("parallel.stale_drop_share",
        static_cast<double>(r.stale_candidate_drops) / iters, "ratio");

  m.add("bench.trace_overhead_share", 1.0 - median(on) / median(off), "ratio");

  out.trace_file = (fs::path(args.work_dir) / ("trace-" + w.name + ".json")).string();
  std::ofstream os(out.trace_file);
  rec->write_chrome_json(os);
  out.checks.expect(static_cast<bool>(os), "cannot write " + out.trace_file);
  if (!sa.iterations_mapped) {
    std::cerr << "  note: launches did not map onto iterations; launch gaps "
                 "left out\n";
  }
  out.iterations = r.iterations.size();
  out.covered = out.covered_min = r.covered_branches;
  out.bugs = out.bugs_min = r.bugs.size();
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (c == '\n') {
      o += "\\n";
      continue;
    }
    o += c;
  }
  return o + "\"";
}

bool ndebug() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: compi_perfbench --workload=NAME [--seed=N] "
                 "[--seconds=S] [--trace=0|1] [--work-dir=DIR] [--scale=F]\n";
    return 2;
  }
  Workload w;
  if (!make_workload(args.workload, args.scale, w)) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  Outcome out;
  try {
    if (args.trace) {
      traced(w, args, out);
    } else {
      untraced(w, args, out);
    }
  } catch (const std::exception& e) {
    out.checks.expect(false, std::string("exception: ") + e.what());
  }
  const int failed = static_cast<int>(out.checks.size());
  for (const std::string& f : out.checks.failures()) {
    std::cerr << "CHECK FAILED: " << f << "\n";
  }

  std::ostringstream os;
  os << "{\"workload\": " << json_str(w.name) << ", \"seed\": " << args.seed
     << ", \"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max(1, out.attempted)
     << ", \"failed\": " << std::min(failed, std::max(1, out.attempted))
     << ", \"iterations\": " << out.iterations
     << ", \"covered_branches\": " << out.covered
     << ", \"bugs_found\": " << out.bugs
     << ", \"covered_branches_min\": " << out.covered_min
     << ", \"bugs_found_min\": " << out.bugs_min
     << ", \"trace_file\": " << json_str(out.trace_file)
     << ", \"stamp\": {\"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"ndebug\": " << (ndebug() ? "true" : "false")
     << ", \"sanitizer\": " << (sanitized() ? "true" : "false")
     << ", \"compiler\": " << json_str(__VERSION__) << "}, \"metrics\": ";
  out.metrics.write_json(os);
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}
