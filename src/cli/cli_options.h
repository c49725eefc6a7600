// Command-line parsing for the `compi` tool binary.
//
// Kept separate from main() so the parsing logic is unit-testable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compi/options.h"

namespace compi::cli {

struct CliConfig {
  std::string target = "susy";  // susy | susy-fixed | hpl | imb
  int cap = 0;                  // 0 = target default N_C
  bool random_baseline = false; // run the random tester instead of COMPI
  std::string resume_dir;       // --resume: session directory to continue
  std::string explain_dir;      // --explain: report on this session and exit
  CampaignOptions campaign;
  bool list_targets = false;
  bool show_help = false;
  bool print_curve = false;     // per-iteration coverage curve on stdout
  bool print_functions = false; // per-function coverage breakdown
  // `compi top <host:port|status-file>`: live terminal dashboard against a
  // serving campaign (or a --status-file heartbeat).
  bool top = false;
  std::string top_target;
  int top_interval_ms = 1000;
  int top_frames = 0;           // 0 = refresh until the campaign ends
  bool top_fleet = false;       // --fleet: per-shard coordinator view
  // `compi coordinate`: distributed campaign coordinator.  Reuses
  // --target/--cap/--log-dir/--resume/--journal/--serve from the shared
  // flags; the fields below are its own.
  bool coordinate = false;
  int coord_port = 0;           // shard TCP port (0 = ephemeral loopback)
  std::int64_t coord_budget = 1000;
  int coord_lease_quota = 16;
  int coord_lease_ttl_ms = 10000;
  // `compi trace-merge`: stitch coordinator + shard Chrome traces into one
  // clock-aligned timeline.
  bool trace_merge = false;
  std::string trace_merge_coordinator;       // --coordinator=DIR (optional)
  std::vector<std::string> trace_merge_shards;  // positional shard dirs
  std::string trace_merge_out;               // --out=PATH (default stdout)
  // Campaign shard mode: --connect=HOST:PORT attaches the campaign to a
  // coordinator (degrades to standalone when it is unreachable).
  std::string connect;
  std::string shard_name = "shard";
  int shard_heartbeat_ms = 1000;
};

struct ParseResult {
  CliConfig config;
  std::optional<std::string> error;  // set when arguments were invalid
};

/// Parses argv.  Recognized flags:
///   --target=NAME        susy | susy-fixed | hpl | imb   (default susy)
///   --iterations=N       testing budget                  (default 500)
///   --time-budget=SECS   wall-clock budget (0 = off)
///   --strategy=NAME      bounded-dfs | dfs | random-branch |
///                        uniform-random | cfg
///   --cap=N              input cap N_C (target default when omitted)
///   --nprocs=N           initial process count           (default 8)
///   --focus=N            initial focus rank              (default 0)
///   --max-procs=N        cap on the process count        (default 16)
///   --dfs-phase=N        pure-DFS iterations before BoundedDFS
///   --depth-bound=N      explicit BoundedDFS bound (0 = derive)
///   --seed=N             RNG seed
///   --log-dir=PATH       write a file-based session
///   --resume=PATH        continue the checkpointed session in PATH
///   --checkpoint-interval=N  snapshot every N iterations (0 = off)
///   --workers=N          parallel campaign workers (default 1 = serial)
///   --solver-cache=N     solver memoization capacity in entries (0 = off)
///   --isolate            fork a sandbox child per test (contain real
///                        crashes and uninstrumented hangs)
///   --hang-timeout-ms=N  sandbox wall-clock kill timeout (0 = derive)
///   --child-mem-mb=N     sandbox child RLIMIT_AS in MiB (0 = inherit)
///   --retry-max=N        transient-failure retries (default 2)
///   --chaos-seed=N       fault-injection seed
///   --chaos-drop-rate=R  P(drop an outgoing message), 0..1
///   --chaos-crash-rank=N crash this rank ...
///   --chaos-crash-at=N   ... at its N-th MPI call (1-based)
///   --trace              record spans, export Chrome trace JSON
///   --metrics            export the metrics registry (Prometheus text)
///   --trace-buffer-kb=N  trace ring capacity in KiB (default 256)
///   --journal            write journal.jsonl event log into the session
///   --status-file=PATH   atomically rewrite a heartbeat JSON each iteration
///   --serve=PORT         embedded HTTP control plane on 127.0.0.1:PORT
///                        (0 = ephemeral): /metrics /status /events /explain
///   --max-bugs=N         stop gracefully after N distinct bugs (0 = off)
///   --explain=DIR        print the introspection report for a logged
///                        session directory and exit (no campaign)
///   --no-confirm-bugs    skip the flaky-bug confirmation replay
///   --no-reduction       disable constraint-set reduction (§IV-C)
///   --no-framework       No_Fwk ablation (§VI-E)
///   --one-way            one-way instrumentation ablation (§IV-B)
///   --random             random-testing baseline instead of COMPI
///   --curve              print the per-iteration coverage curve
///   --functions          print the per-function coverage breakdown
///   --list-targets, --help
///
/// Campaign shard mode:
///   --connect=HOST:PORT  pull iteration leases from a `compi coordinate`
///                        process instead of running the whole local
///                        budget; degrades to standalone when the
///                        coordinator is unreachable
///   --shard-name=NAME    human-readable shard identity (default "shard")
///   --shard-heartbeat-ms=N  lease-keepalive cadence (default 1000)
///
/// Campaign/coordinator shared: `--stall-window=SECS` sets the coverage
/// plateau the stall-diagnosis engine requires before it classifies a
/// stall (default 20).
///
/// Subcommand: `top <host:port|status-file> [--interval-ms=N] [--frames=N]
/// [--fleet]` fills the `top*` fields instead of running a campaign;
/// --fleet renders the coordinator's per-shard table from GET /fleet.
///
/// Subcommand: `coordinate [--port=N] [--budget=N] [--lease-quota=N]
/// [--lease-ttl-ms=N] [--target=...] [--cap=N] [--log-dir=PATH]
/// [--resume=PATH] [--journal] [--serve=PORT] [--trace]
/// [--trace-buffer-kb=N] [--stall-window=SECS]` fills the `coord*` fields
/// and runs the distributed campaign coordinator.
///
/// Subcommand: `trace-merge [--coordinator=DIR] [--out=PATH] SHARD_DIR...`
/// merges coordinator + shard trace.json files into one Chrome trace.
[[nodiscard]] ParseResult parse_cli(const std::vector<std::string>& args);

[[nodiscard]] std::string usage();

}  // namespace compi::cli
