#include "cli/cli_options.h"

#include <charconv>
#include <sstream>

namespace compi::cli {
namespace {

/// Splits "--flag=value" into (flag, value); value empty for bare flags.
std::pair<std::string, std::string> split_flag(const std::string& arg) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos) return {arg, ""};
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

std::optional<std::int64_t> parse_int(const std::string& s) {
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<SearchKind> parse_strategy(const std::string& s) {
  if (s == "bounded-dfs") return SearchKind::kBoundedDfs;
  if (s == "dfs") return SearchKind::kDfs;
  if (s == "random-branch") return SearchKind::kRandomBranch;
  if (s == "uniform-random") return SearchKind::kUniformRandom;
  if (s == "cfg") return SearchKind::kCfg;
  if (s == "generational") return SearchKind::kGenerational;
  return std::nullopt;
}

}  // namespace

ParseResult parse_cli(const std::vector<std::string>& args) {
  ParseResult result;
  CliConfig& cfg = result.config;
  auto fail = [&](const std::string& msg) {
    result.error = msg;
    return result;
  };

  // `compi top <target> [--interval-ms=N] [--frames=N]` — the first
  // positional argument selects the subcommand; the target is the second.
  if (!args.empty() && args[0] == "top") {
    cfg.top = true;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const auto [flag, value] = split_flag(args[i]);
      if (flag == "--interval-ms") {
        const auto v = parse_int(value);
        if (!v || *v < 50 || *v > 60'000) {
          return fail("--interval-ms needs 50..60000");
        }
        cfg.top_interval_ms = static_cast<int>(*v);
      } else if (flag == "--frames") {
        const auto v = parse_int(value);
        if (!v || *v < 0 || *v > 1'000'000) {
          return fail("--frames needs 0..1000000");
        }
        cfg.top_frames = static_cast<int>(*v);
      } else if (flag == "--fleet") {
        cfg.top_fleet = true;
      } else if (flag == "--help" || flag == "-h") {
        cfg.show_help = true;
      } else if (!flag.empty() && flag[0] == '-') {
        return fail("unknown flag '" + flag + "' for compi top");
      } else if (cfg.top_target.empty()) {
        cfg.top_target = args[i];
      } else {
        return fail("compi top takes one target (host:port or status file)");
      }
    }
    if (!cfg.show_help && cfg.top_target.empty()) {
      return fail("compi top needs a target: host:port or a status file");
    }
    return result;
  }

  // `compi trace-merge [--coordinator=DIR] [--out=PATH] SHARD_DIR...` —
  // stitch a distributed campaign's Chrome traces into one timeline.
  if (!args.empty() && args[0] == "trace-merge") {
    cfg.trace_merge = true;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const auto [flag, value] = split_flag(args[i]);
      if (flag == "--coordinator") {
        if (value.empty()) return fail("--coordinator needs a session dir");
        cfg.trace_merge_coordinator = value;
      } else if (flag == "--out") {
        if (value.empty()) return fail("--out needs a path");
        cfg.trace_merge_out = value;
      } else if (flag == "--help" || flag == "-h") {
        cfg.show_help = true;
      } else if (!flag.empty() && flag[0] == '-') {
        return fail("unknown flag '" + flag + "' for compi trace-merge");
      } else {
        cfg.trace_merge_shards.push_back(args[i]);
      }
    }
    if (!cfg.show_help && cfg.trace_merge_shards.empty() &&
        cfg.trace_merge_coordinator.empty()) {
      return fail("compi trace-merge needs shard session dirs "
                  "(and/or --coordinator=DIR)");
    }
    return result;
  }

  // `compi coordinate [--port=N] [--budget=N] ...` — the coordinator
  // process of a distributed campaign.  Shares the target/session flags
  // with the campaign mode; everything else is lease bookkeeping.
  if (!args.empty() && args[0] == "coordinate") {
    cfg.coordinate = true;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const auto [flag, value] = split_flag(args[i]);
      const auto want_int = [&](std::int64_t lo,
                                std::int64_t hi) -> std::optional<std::int64_t> {
        const auto v = parse_int(value);
        if (!v || *v < lo || *v > hi) return std::nullopt;
        return v;
      };
      if (flag == "--port") {
        const auto v = want_int(0, 65'535);
        if (!v) return fail("--port needs 0..65535 (0 = ephemeral)");
        cfg.coord_port = static_cast<int>(*v);
      } else if (flag == "--budget") {
        const auto v = want_int(1, 1'000'000'000);
        if (!v) return fail("--budget needs a positive iteration count");
        cfg.coord_budget = *v;
      } else if (flag == "--lease-quota") {
        const auto v = want_int(1, 100'000);
        if (!v) return fail("--lease-quota needs 1..100000");
        cfg.coord_lease_quota = static_cast<int>(*v);
      } else if (flag == "--lease-ttl-ms") {
        const auto v = want_int(100, 3'600'000);
        if (!v) return fail("--lease-ttl-ms needs 100..3600000");
        cfg.coord_lease_ttl_ms = static_cast<int>(*v);
      } else if (flag == "--target") {
        if (value != "susy" && value != "susy-fixed" && value != "hpl" &&
            value != "imb") {
          return fail("unknown target '" + value + "'");
        }
        cfg.target = value;
      } else if (flag == "--cap") {
        const auto v = want_int(1, 1'000'000);
        if (!v) return fail("--cap needs a positive integer");
        cfg.cap = static_cast<int>(*v);
      } else if (flag == "--log-dir") {
        if (value.empty()) return fail("--log-dir needs a path");
        cfg.campaign.log_dir = value;
      } else if (flag == "--resume") {
        if (value.empty()) return fail("--resume needs a session directory");
        cfg.campaign.resume = true;
        cfg.resume_dir = value;
      } else if (flag == "--journal") {
        cfg.campaign.journal = true;
      } else if (flag == "--serve") {
        const auto v = want_int(0, 65'535);
        if (!v) return fail("--serve needs a port 0..65535 (0 = ephemeral)");
        cfg.campaign.serve_port = static_cast<int>(*v);
      } else if (flag == "--trace") {
        cfg.campaign.trace = true;
      } else if (flag == "--trace-buffer-kb") {
        const auto v = want_int(1, 1'048'576);
        if (!v) return fail("--trace-buffer-kb needs 1..1048576");
        cfg.campaign.trace_buffer_kb = static_cast<int>(*v);
      } else if (flag == "--stall-window") {
        const auto v = parse_double(value);
        if (!v || *v < 1.0 || *v > 86'400.0) {
          return fail("--stall-window needs seconds in 1..86400");
        }
        cfg.campaign.stall_window_seconds = *v;
      } else if (flag == "--help" || flag == "-h") {
        cfg.show_help = true;
      } else {
        return fail("unknown flag '" + flag + "' for compi coordinate");
      }
    }
    if (!cfg.resume_dir.empty()) {
      if (!cfg.campaign.log_dir.empty() &&
          cfg.campaign.log_dir != cfg.resume_dir) {
        return fail("--resume already names the session; drop --log-dir");
      }
      cfg.campaign.log_dir = cfg.resume_dir;
    }
    return result;
  }

  for (const std::string& arg : args) {
    const auto [flag, value] = split_flag(arg);
    auto want_int = [&](std::int64_t lo,
                        std::int64_t hi) -> std::optional<std::int64_t> {
      const auto v = parse_int(value);
      if (!v || *v < lo || *v > hi) return std::nullopt;
      return v;
    };

    if (flag == "--help" || flag == "-h") {
      cfg.show_help = true;
    } else if (flag == "--list-targets") {
      cfg.list_targets = true;
    } else if (flag == "--target") {
      if (value != "susy" && value != "susy-fixed" && value != "hpl" &&
          value != "imb") {
        return fail("unknown target '" + value + "'");
      }
      cfg.target = value;
    } else if (flag == "--iterations") {
      const auto v = want_int(1, 100'000'000);
      if (!v) return fail("--iterations needs a positive integer");
      cfg.campaign.iterations = static_cast<int>(*v);
    } else if (flag == "--time-budget") {
      const auto v = want_int(0, 1'000'000);
      if (!v) return fail("--time-budget needs seconds >= 0");
      cfg.campaign.time_budget_seconds = static_cast<double>(*v);
    } else if (flag == "--strategy") {
      const auto s = parse_strategy(value);
      if (!s) return fail("unknown strategy '" + value + "'");
      cfg.campaign.search = *s;
    } else if (flag == "--cap") {
      const auto v = want_int(1, 1'000'000);
      if (!v) return fail("--cap needs a positive integer");
      cfg.cap = static_cast<int>(*v);
    } else if (flag == "--nprocs") {
      const auto v = want_int(1, 1024);
      if (!v) return fail("--nprocs needs 1..1024");
      cfg.campaign.initial_nprocs = static_cast<int>(*v);
    } else if (flag == "--focus") {
      const auto v = want_int(0, 1023);
      if (!v) return fail("--focus needs 0..1023");
      cfg.campaign.initial_focus = static_cast<int>(*v);
    } else if (flag == "--max-procs") {
      const auto v = want_int(1, 1024);
      if (!v) return fail("--max-procs needs 1..1024");
      cfg.campaign.max_procs = static_cast<int>(*v);
    } else if (flag == "--dfs-phase") {
      const auto v = want_int(1, 100'000'000);
      if (!v) return fail("--dfs-phase needs a positive integer");
      cfg.campaign.dfs_phase_iterations = static_cast<int>(*v);
    } else if (flag == "--depth-bound") {
      const auto v = want_int(0, 100'000'000);
      if (!v) return fail("--depth-bound needs an integer >= 0");
      cfg.campaign.depth_bound = static_cast<int>(*v);
    } else if (flag == "--seed") {
      const auto v = parse_int(value);
      if (!v) return fail("--seed needs an integer");
      cfg.campaign.seed = static_cast<std::uint64_t>(*v);
    } else if (flag == "--log-dir") {
      if (value.empty()) return fail("--log-dir needs a path");
      cfg.campaign.log_dir = value;
    } else if (flag == "--resume") {
      if (value.empty()) return fail("--resume needs a session directory");
      cfg.campaign.resume = true;
      cfg.resume_dir = value;
    } else if (flag == "--checkpoint-interval") {
      const auto v = want_int(0, 100'000'000);
      if (!v) return fail("--checkpoint-interval needs an integer >= 0");
      cfg.campaign.checkpoint_interval = static_cast<int>(*v);
    } else if (flag == "--keep-rank-logs") {
      if (value == "all") {
        cfg.campaign.keep_rank_logs = -1;
      } else {
        const auto v = want_int(0, 100'000'000);
        if (!v) return fail("--keep-rank-logs needs N >= 0 or 'all'");
        cfg.campaign.keep_rank_logs = static_cast<int>(*v);
      }
    } else if (flag == "--workers") {
      const auto v = want_int(1, 256);
      if (!v) return fail("--workers needs 1..256");
      cfg.campaign.workers = static_cast<int>(*v);
    } else if (flag == "--solver-cache") {
      const auto v = want_int(0, 10'000'000);
      if (!v) return fail("--solver-cache needs entries >= 0");
      cfg.campaign.solver_cache_entries = static_cast<int>(*v);
    } else if (flag == "--explore-matchings") {
      cfg.campaign.explore_matchings = true;
    } else if (flag == "--max-interleavings") {
      const auto v = want_int(0, 10'000'000);
      if (!v) return fail("--max-interleavings needs an integer >= 0");
      cfg.campaign.max_interleavings = static_cast<int>(*v);
    } else if (flag == "--isolate") {
      cfg.campaign.isolate = true;
    } else if (flag == "--hang-timeout-ms") {
      const auto v = want_int(0, 86'400'000);
      if (!v) return fail("--hang-timeout-ms needs 0..86400000");
      cfg.campaign.hang_timeout_ms = static_cast<int>(*v);
    } else if (flag == "--child-mem-mb") {
      const auto v = want_int(0, 1'048'576);
      if (!v) return fail("--child-mem-mb needs 0..1048576");
      cfg.campaign.child_mem_mb = static_cast<int>(*v);
    } else if (flag == "--retry-max") {
      const auto v = want_int(0, 10);
      if (!v) return fail("--retry-max needs 0..10");
      cfg.campaign.retry_max = static_cast<int>(*v);
    } else if (flag == "--chaos-seed") {
      const auto v = parse_int(value);
      if (!v) return fail("--chaos-seed needs an integer");
      cfg.campaign.chaos.seed = static_cast<std::uint64_t>(*v);
    } else if (flag == "--chaos-drop-rate") {
      const auto v = parse_double(value);
      if (!v || *v < 0.0 || *v > 1.0) {
        return fail("--chaos-drop-rate needs a probability in [0, 1]");
      }
      cfg.campaign.chaos.drop_rate = *v;
    } else if (flag == "--chaos-crash-rank") {
      const auto v = want_int(0, 1023);
      if (!v) return fail("--chaos-crash-rank needs 0..1023");
      cfg.campaign.chaos.crash_rank = static_cast<int>(*v);
    } else if (flag == "--chaos-crash-at") {
      const auto v = want_int(1, 1'000'000'000);
      if (!v) return fail("--chaos-crash-at needs a call number >= 1");
      cfg.campaign.chaos.crash_at_call = *v;
    } else if (flag == "--journal") {
      cfg.campaign.journal = true;
    } else if (flag == "--status-file") {
      if (value.empty()) return fail("--status-file needs a path");
      cfg.campaign.status_file = value;
    } else if (flag == "--stall-window") {
      const auto v = parse_double(value);
      if (!v || *v < 1.0 || *v > 86'400.0) {
        return fail("--stall-window needs seconds in 1..86400");
      }
      cfg.campaign.stall_window_seconds = *v;
    } else if (flag == "--serve") {
      const auto v = want_int(0, 65'535);
      if (!v) return fail("--serve needs a port 0..65535 (0 = ephemeral)");
      cfg.campaign.serve_port = static_cast<int>(*v);
    } else if (flag == "--max-bugs") {
      const auto v = want_int(0, 1'000'000);
      if (!v) return fail("--max-bugs needs an integer >= 0");
      cfg.campaign.max_bugs = static_cast<int>(*v);
    } else if (flag == "--connect") {
      if (value.empty()) return fail("--connect needs HOST:PORT");
      cfg.connect = value;
    } else if (flag == "--shard-name") {
      if (value.empty()) return fail("--shard-name needs a name");
      cfg.shard_name = value;
    } else if (flag == "--shard-heartbeat-ms") {
      const auto v = want_int(50, 3'600'000);
      if (!v) return fail("--shard-heartbeat-ms needs 50..3600000");
      cfg.shard_heartbeat_ms = static_cast<int>(*v);
    } else if (flag == "--explain") {
      if (value.empty()) return fail("--explain needs a session directory");
      cfg.explain_dir = value;
    } else if (flag == "--trace") {
      cfg.campaign.trace = true;
    } else if (flag == "--metrics") {
      cfg.campaign.metrics = true;
    } else if (flag == "--trace-buffer-kb") {
      const auto v = want_int(1, 1'048'576);
      if (!v) return fail("--trace-buffer-kb needs 1..1048576");
      cfg.campaign.trace_buffer_kb = static_cast<int>(*v);
    } else if (flag == "--no-confirm-bugs") {
      cfg.campaign.confirm_bugs = false;
    } else if (flag == "--no-reduction") {
      cfg.campaign.reduction = false;
    } else if (flag == "--no-framework") {
      cfg.campaign.framework = false;
    } else if (flag == "--one-way") {
      cfg.campaign.one_way = true;
    } else if (flag == "--random") {
      cfg.random_baseline = true;
    } else if (flag == "--curve") {
      cfg.print_curve = true;
    } else if (flag == "--functions") {
      cfg.print_functions = true;
    } else {
      return fail("unknown flag '" + flag + "'");
    }
  }

  if (cfg.campaign.initial_focus >= cfg.campaign.initial_nprocs) {
    return fail("--focus must be below --nprocs");
  }
  if (!cfg.resume_dir.empty()) {
    if (!cfg.campaign.log_dir.empty() &&
        cfg.campaign.log_dir != cfg.resume_dir) {
      return fail("--resume already names the session; drop --log-dir");
    }
    cfg.campaign.log_dir = cfg.resume_dir;
  }
  return result;
}

std::string usage() {
  std::ostringstream os;
  os << "compi — concolic testing for MPI programs (IPDPS'18 reproduction)\n"
        "\n"
        "usage: compi [--target=susy|susy-fixed|hpl|imb] [options]\n"
        "\n"
        "  --iterations=N       testing budget (default 500)\n"
        "  --time-budget=SECS   wall-clock budget, 0 = iterations only\n"
        "  --strategy=NAME      bounded-dfs (default) | dfs | random-branch\n"
        "                       | uniform-random | cfg | generational\n"
        "  --cap=N              input cap N_C (target default when omitted)\n"
        "  --nprocs=N --focus=N initial launch setup (default 8, 0)\n"
        "  --max-procs=N        cap on the process count (default 16)\n"
        "  --dfs-phase=N        pure-DFS iterations before BoundedDFS\n"
        "  --depth-bound=N      explicit bound (0 = derive from phase 1)\n"
        "  --seed=N             RNG seed\n"
        "  --log-dir=PATH       write a session: iterations.csv, bugs.txt,\n"
        "                       rank logs, checkpoints\n"
        "  --resume=PATH        continue the checkpointed session in PATH\n"
        "  --checkpoint-interval=N  snapshot every N iterations (0 = off)\n"
        "  --keep-rank-logs=N|all  per-rank logs kept in the session: each\n"
        "                       bug's first iteration plus the last N\n"
        "                       (default 16; 0 = none, all = every one)\n"
        "  --workers=N          parallel campaign workers; each runs its\n"
        "                       share of every epoch, merged in ordinal\n"
        "                       order (same seed, same session at any N;\n"
        "                       default 1 = the serial campaign, on the\n"
        "                       calling thread)\n"
        "  --solver-cache=N     memoize definitive solver answers, N entries\n"
        "                       LRU per worker (0 = off)\n"
        "  --explore-matchings  enumerate alternative wildcard-receive\n"
        "                       matchings (each reordering is a replayable\n"
        "                       campaign iteration)\n"
        "  --max-interleavings=N  cap on enqueued reorderings (default 64,\n"
        "                       0 = unlimited)\n"
        "  --isolate            run each test outside the tester's process,\n"
        "                       in a persistent executor replaced after each\n"
        "                       fault: real crashes/hangs are contained and\n"
        "                       recorded\n"
        "  --hang-timeout-ms=N  SIGKILL a sandboxed child after N ms of\n"
        "                       wall clock (0 = 2x test timeout + 2 s)\n"
        "  --child-mem-mb=N     RLIMIT_AS for the child in MiB (0 = inherit)\n"
        "  --retry-max=N        transient-failure retries (default 2)\n"
        "  --chaos-seed=N       fault-injection seed\n"
        "  --chaos-drop-rate=R  P(drop an outgoing message), 0..1\n"
        "  --chaos-crash-rank=N --chaos-crash-at=M\n"
        "                       crash rank N at its M-th MPI call\n"
        "  --trace              record spans; export Chrome trace JSON\n"
        "                       (<log-dir>/trace.json, one track per rank)\n"
        "  --metrics            export Prometheus text (<log-dir>/metrics.prom)\n"
        "  --trace-buffer-kb=N  trace ring size in KiB (default 256)\n"
        "  --journal            write journal.jsonl (one JSON event per\n"
        "                       iteration/solve/retry/kill) into the session\n"
        "  --status-file=PATH   atomically rewrite a one-object heartbeat\n"
        "                       JSON after every iteration\n"
        "  --stall-window=SECS  coverage-plateau window before the stall\n"
        "                       diagnosis engine classifies why the search\n"
        "                       stopped progressing (default 20)\n"
        "  --serve=PORT         embedded control-plane HTTP server on\n"
        "                       127.0.0.1:PORT (0 = ephemeral; the bound port\n"
        "                       lands in the status heartbeat).  Endpoints:\n"
        "                       /metrics /status /events /explain\n"
        "  --max-bugs=N         stop gracefully after N distinct bugs\n"
        "  --connect=HOST:PORT  run as a distributed campaign shard: pull\n"
        "                       iteration leases from a `compi coordinate`\n"
        "                       process, upload coverage/bug deltas, absorb\n"
        "                       the fleet's coverage; degrades to standalone\n"
        "                       (and keeps retrying) when the coordinator is\n"
        "                       unreachable\n"
        "  --shard-name=NAME    shard identity for the coordinator's logs\n"
        "  --shard-heartbeat-ms=N  lease keepalive cadence (default 1000)\n"
        "  --explain=DIR        print coverage timeline, near-miss, rank\n"
        "                       skew and solver reports for a logged\n"
        "                       session, then exit\n"
        "  --no-confirm-bugs    skip the flaky-bug confirmation replay\n"
        "  --no-reduction | --no-framework | --one-way   ablations\n"
        "  --random             random-testing baseline\n"
        "  --curve              print the coverage curve\n"
        "  --functions          per-function coverage breakdown\n"
        "  --list-targets | --help\n"
        "\n"
        "subcommands:\n"
        "  compi top <host:port|status-file> [--interval-ms=N] [--frames=N]\n"
        "            [--fleet]\n"
        "                       live terminal dashboard for a campaign that\n"
        "                       is serving (--serve) or writing --status-file;\n"
        "                       --fleet renders a coordinator's per-shard\n"
        "                       table (rates, leases, lag sparklines) from\n"
        "                       its /fleet endpoint\n"
        "  compi coordinate [--port=N] [--budget=N] [--lease-quota=N]\n"
        "                   [--lease-ttl-ms=N] [--target=...] [--cap=N]\n"
        "                   [--log-dir=PATH] [--resume=PATH] [--journal]\n"
        "                   [--serve=PORT] [--trace] [--trace-buffer-kb=N]\n"
        "                   [--stall-window=SECS]\n"
        "                       fault-tolerant distributed campaign\n"
        "                       coordinator: partitions the iteration budget\n"
        "                       across --connect'ed shards as time-bounded\n"
        "                       leases, merges their coverage/bug/ledger\n"
        "                       deltas, reclaims leases from dead shards,\n"
        "                       and checkpoints so kill -9 + --resume loses\n"
        "                       nothing\n"
        "  compi trace-merge [--coordinator=DIR] [--out=PATH] SHARD_DIR...\n"
        "                       stitch the coordinator's and each shard's\n"
        "                       trace.json into one clock-aligned Chrome\n"
        "                       trace (one process lane per shard; wall-\n"
        "                       clock drift corrected from the handshake\n"
        "                       stamps in the coordinator journal)\n";
  return os.str();
}

}  // namespace compi::cli
