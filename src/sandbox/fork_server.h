// AFL-style fork server: amortize sandbox setup across a whole campaign.
//
// run_sandboxed() pays a full fork() of the tester — registry, branch
// table, planner heaps and all — per iteration (~0.33 ms in bench_micro,
// ROADMAP item 1's "single biggest raw-speed lever").  The fork server
// restores AFL's snapshot-at-entry pattern: one long-lived *server* child
// is forked once, parks in a tight loop just before iteration dispatch,
// and forks each iteration's *grandchild* from that warm snapshot.  The
// grandchild runs the exact same detail::child_main as a cold sandbox
// child, so crash containment, signal→Outcome mapping, rlimit fences, and
// shared-map coverage harvest are byte-for-byte the cold path's.
//
// Three pipes (wire.h framing everywhere):
//   ctl  parent → server   kRegistry sync suffixes, then one kSpawn per
//                          iteration (the per-iteration launch params).
//   st   server → parent   one kHello at startup, then kStatus lifecycle
//                          frames: "spawned <pid>", "reaped <status>",
//                          "reject <reason>".
//   res  grandchild → parent   the classic kResult/kError/kSignal/
//                          kRegistry stream.  The server holds the write
//                          end open for its whole life, so the parent
//                          reads it non-blocking and treats the server's
//                          "reaped" frame — not EOF — as end-of-stream.
//
// Registry discipline: the server builds its OWN VarRegistry purely from
// the parent's kRegistry suffix frames (never touching the parent's
// mutex-guarded registry across fork).  Interning is append-only and
// first-marking-wins, so replaying suffixes in order reproduces identical
// dense variable ids; new variables a grandchild interns travel back on
// the res pipe exactly as in the cold path and get re-shipped as the next
// suffix.
//
// Fallback ladder: `--fork-server=off` never starts a server; a server
// death (EPIPE on ctl, waitpid, or an unresponsive spawn) cold-forks the
// in-flight iteration via run_sandboxed — the iteration is never lost —
// and the server is restarted up to ForkServerOptions::max_restarts times
// before the engine degrades permanently to per-iteration fork.
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
  std::uint64_t warm_spawns = 0;  // iterations forked from the snapshot
  std::uint64_t cold_forks = 0;   // iterations that fell back to run_sandboxed
  std::uint64_t restarts = 0;     // server deaths observed
  bool degraded = false;          // restart budget exhausted; cold forever
  /// Wall seconds of the most recent warm spawn (spawn → reaped),
  /// exported to the driver's spawn-latency histogram.
  double last_spawn_seconds = 0.0;
};

/// One warm-snapshot execution engine.  NOT thread-safe: the parallel
/// driver gives each worker its own instance (each server child serves
/// exactly one worker thread).
class ForkServer {
 public:
  ForkServer(const rt::BranchTable& table, ForkServerOptions options);
  ~ForkServer();

  ForkServer(const ForkServer&) = delete;
  ForkServer& operator=(const ForkServer&) = delete;

  /// Runs one iteration, warm when possible.  The first call captures
  /// `spec` as the snapshot prototype (program + table are fixed for a
  /// campaign); later calls may vary everything a SpawnRequest carries.
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

  /// Forks the server child now, with `prototype` as the snapshot
  /// prototype (run() does this lazily on its first call otherwise).  A
  /// fork hands the child every lock another thread holds at that instant
  /// — the sanitizer allocators' included — so a multi-threaded driver
  /// starts its servers before its other threads exist.  False on failure
  /// (run() then retries).
  bool start(const minimpi::LaunchSpec& prototype);

 private:
  void note_server_death();
  void shutdown();

  const rt::BranchTable& table_;
  ForkServerOptions options_;
  ForkServerStats stats_;

  bool started_ = false;
  long server_pid_ = -1;
  int ctl_fd_ = -1;  // write end
  int st_fd_ = -1;   // read end
  int res_fd_ = -1;  // read end, O_NONBLOCK
  unsigned char* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t map_size_ = 0;
  /// Variables already shipped to the server; the next sync sends the
  /// suffix [synced_vars_, registry.size()).
  std::size_t synced_vars_ = 0;
  FrameReader st_reader_;
};

/// Gate for the `--batch-reset` non-isolated fast path: after `warmup`
/// consecutive clean runs (no real signal, no hang kill, job outcome kOk)
/// the target has earned in-process execution; any fault demotes it back
/// to the sandbox until it re-earns the streak.
class BatchGate {
 public:
  explicit BatchGate(int warmup) : warmup_(warmup) {}

  [[nodiscard]] bool ready() const { return streak_ >= warmup_; }
  void record_clean() {
    if (streak_ < warmup_) ++streak_;
  }
  void record_fault() { streak_ = 0; }

 private:
  int warmup_;
  int streak_ = 0;
};

/// The batched fast path itself: clears any leftover coverage sink and
/// runs the launcher in-process — bit-identical to a non-isolated serial
/// iteration, with zero process creation.
[[nodiscard]] minimpi::RunResult run_batch_reset(
    const minimpi::LaunchSpec& spec, const rt::BranchTable& table);

}  // namespace compi::sandbox
