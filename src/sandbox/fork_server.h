// AFL-style fork server: amortize sandbox setup across a whole campaign.
//
// run_sandboxed() pays a full fork() of the tester — registry, branch
// table, planner heaps and all — per iteration.  The fork server restores
// AFL's snapshot-at-entry pattern and goes one step further (AFL's
// persistent mode): one long-lived *server* child is forked once, before
// the campaign's heaps grow, and forks one persistent *executor* from that
// warm snapshot.  The executor runs iteration after iteration in-process,
// under the same fatal-signal reporter, MAP_SHARED coverage sink and
// rlimit fences as a cold sandbox child (detail::arm_child), so crash
// containment, signal→Outcome mapping and coverage harvest are the cold
// path's.  A clean iteration forks no process at all.
//
// Recycle rule: the executor exits after any iteration whose job outcome
// is not kOk, and real signals and hang kills end it anyway; the server
// then forks a replacement from its snapshot.  A faulting run therefore
// never leaves its half-torn state to the next iteration.
//
// Three channels (wire.h framing everywhere):
//   ctl  parent → executor  kRegistry sync suffixes, then one kSpawn per
//                          iteration (the per-iteration launch params).
//                          The executor reads it itself; the server only
//                          holds it for the next replacement.
//   st   server ↔ parent   (a socket pair) one kHello at startup, then
//                          kStatus lifecycle frames of the executor:
//                          "spawned <pid>" and "reaped <wait-status>",
//                          plus "alive" for each ping byte the parent
//                          writes after shipping a spawn.
//   res  executor → parent  per run: a kRegistry frame with the variables
//                          the run interned, kResult/kError (or the
//                          fatal-signal handler's kSignal), and one kDone
//                          end-of-run frame: "next" (the executor takes the
//                          next spawn), "exit" (it recycles now) or
//                          "reject <reason>" (undecodable spawn; it
//                          recycles and the parent cold-forks the run).
//                          A run that kills the executor ends at the
//                          server's "reaped" frame instead.
//
// Registry discipline: each executor builds its OWN VarRegistry purely
// from the parent's kRegistry suffix frames.  Interning is append-only and
// first-marking-wins, so replaying suffixes in order reproduces identical
// dense variable ids; variables a run interns travel back as a suffix and
// are therefore known on both sides.  When an executor ends, the parent
// ships its replacement the full registry with the next spawn.
//
// Lifetime: the executor dies with the server (PR_SET_PDEATHSIG where
// available) and exits when the parent closes ctl; the parent checks the
// server is alive before shipping a spawn.  A delivered run also counts
// only after the server answered that run's ping: a server killed before
// run() was called cannot answer, so its run is cold-forked however fast
// the executor was.  A flag byte after the coverage map tells the parent
// whether a dead executor had taken the in-flight spawn; if not, that
// spawn is still in ctl, so the parent restarts the whole server rather
// than let a replacement run it against a stale registry.
//
// Fallback ladder: the cold fork (run_sandboxed) is internal, never a
// user choice.  A server death (EPIPE on ctl, waitpid, or an unresponsive
// run) cold-forks the in-flight iteration — the iteration is never lost —
// and the server is restarted up to ForkServerOptions::max_restarts times
// before the engine degrades permanently to per-iteration fork.  Builds
// without fork() start no server: every run goes to run_sandboxed, which
// there is the in-process launcher.
#pragma once

#include <cstdint>

#include "sandbox/supervisor.h"
#include "sandbox/wire.h"

namespace compi::sandbox {

struct ForkServerOptions {
  SandboxOptions sandbox;
  /// Server deaths tolerated before degrading to cold per-iteration fork.
  int max_restarts = 3;
};

struct ForkServerStats {
  std::uint64_t warm_spawns = 0;     // iterations run by an executor
  std::uint64_t cold_forks = 0;      // iterations that fell back to run_sandboxed
  std::uint64_t restarts = 0;        // server deaths observed
  std::uint64_t executor_forks = 0;  // executors the server reported spawned
  bool degraded = false;             // restart budget exhausted; cold forever
  /// Wall seconds of the most recent warm run (spawn frame shipped → end
  /// of run), exported to the driver's spawn-latency histogram.
  double last_spawn_seconds = 0.0;
};

/// One warm-snapshot execution engine.  NOT thread-safe: the parallel
/// driver gives each worker its own instance (each server and its executor
/// serve exactly one worker thread).
class ForkServer {
 public:
  ForkServer(const rt::BranchTable& table, ForkServerOptions options);
  ~ForkServer();

  ForkServer(const ForkServer&) = delete;
  ForkServer& operator=(const ForkServer&) = delete;

  /// Runs one iteration, warm when possible.  The first call captures
  /// `spec` as the snapshot prototype (program + table are fixed for a
  /// campaign); later calls may vary everything a kSpawn frame carries.
  /// Behaves exactly like run_sandboxed: never throws target faults, maps
  /// child deaths onto synthesized results, updates `stats` per run.
  /// `warm` (when non-null) reports whether this run used the snapshot.
  [[nodiscard]] minimpi::RunResult run(const minimpi::LaunchSpec& spec,
                                       SandboxStats* stats = nullptr,
                                       bool* warm = nullptr);

  [[nodiscard]] const ForkServerStats& stats() const { return stats_; }

  /// True once the restart budget is exhausted (every run cold-forks).
  [[nodiscard]] bool degraded() const { return stats_.degraded; }

  /// Pid of the live server child, or -1 when none is running.  Exposed
  /// for diagnostics and for the crash-path tests, which SIGKILL the
  /// server mid-campaign to exercise the fallback ladder.
  [[nodiscard]] long server_pid() const { return started_ ? server_pid_ : -1; }

  /// Pid of the executor the server last reported spawned, or -1 when none
  /// is known to be running (exposed for the lifecycle tests).
  [[nodiscard]] long executor_pid() const {
    return started_ ? executor_pid_ : -1;
  }

  /// Forks the server child (which forks the first executor) now, with
  /// `prototype` as the snapshot prototype (run() does this lazily on its
  /// first call otherwise).  A
  /// fork hands the child every lock another thread holds at that instant
  /// — the sanitizer allocators' included — so a multi-threaded driver
  /// starts its servers before its other threads exist.  False on failure
  /// (run() then retries).
  bool start(const minimpi::LaunchSpec& prototype);

 private:
  void note_server_death();
  void shutdown();
  /// Marks the current executor as ending: its replacement starts with an
  /// empty registry.
  void executor_ended();
  minimpi::RunResult cold_fork(const minimpi::LaunchSpec& spec,
                               SandboxStats* stats);

  const rt::BranchTable& table_;
  ForkServerOptions options_;
  ForkServerStats stats_;

  bool started_ = false;
  long server_pid_ = -1;
  int ctl_fd_ = -1;  // write end
  int st_fd_ = -1;   // socket: status frames in, ping bytes out
  int res_fd_ = -1;  // read end, O_NONBLOCK
  long executor_pid_ = -1;
  /// The executor sent "exit"/"reject" and its "reaped" frame is still due.
  bool retiring_ = false;
  /// Ping bytes the server has not answered with "alive" yet.
  int unanswered_pings_ = 0;
  /// Coverage sink bytes [0, map_size_) plus the started flag at
  /// map_[map_size_].
  unsigned char* map_ = nullptr;
  std::size_t map_size_ = 0;
  /// Variables the executor already knows; the next sync sends the suffix
  /// [synced_vars_, registry.size()).
  std::size_t synced_vars_ = 0;
  FrameReader st_reader_;
};

}  // namespace compi::sandbox
