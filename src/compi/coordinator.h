// The distributed campaign coordinator (`compi coordinate`).
//
// A Coordinator owns the GLOBAL view of a sharded campaign: the merged
// covered-branch set, the deduplicated bug list, the merged attribution
// ledger, and the iteration budget.  Shards (campaign processes started
// with --connect) speak the coord_protocol over a loopback TCP message
// server (serve/msg_server.h) and pull work as time-bounded leases:
//
//   lease grant    quota = min(lease_quota, budget - completed -
//                  sum(outstanding lease quotas)); 0 with a wait hint when
//                  other shards hold the remaining budget, 0 with stop once
//                  completed >= budget.
//   lease renewal  every frame from a shard (heartbeat, delta, request)
//                  pushes the deadline of all its leases forward.
//   lease reclaim  a lease whose deadline passes — missed heartbeats — or
//                  whose shard's connection drops is expired: its remaining
//                  quota returns to the pool (journal `lease_reclaimed`)
//                  and other shards re-run the work.  Replays are safe
//                  because deltas are idempotent (full-state, cumulative).
//
// Durability: the coordinator embeds its state in a v7 campaign checkpoint
// (coord section: budget/completed counters, outstanding leases, per-shard
// merge cursors) appended to session.log by the same SessionWriter as
// campaign snapshots, which also commits the journal's length, so a
// restarted coordinator's journal is cut back to its snapshot the way a
// campaign's is.  A kill -9'd coordinator restarted with resume=true
// reclaims every restored lease, keeps confirmed coverage, and keeps
// per-shard cumulative cursors so reconnecting shards never double-count.
//
// Observability: joins/losses/reclaims land in the journal
// (`shard_joined` / `shard_lost` / `lease_reclaimed` events), per-shard
// heartbeat gauges and fleet counters in the metrics registry, and the
// merged state is republished through the standard --serve endpoints
// (/metrics /status /events /healthz).
//
// Lock discipline: ONE mutex guards all coordinator state.  It is taken by
// the message-server thread (frame/tick/disconnect callbacks), by wait()
// callers, and by the introspection accessors; nothing under it blocks on
// I/O except the checkpoint write (bounded, tick-context only).  The
// StatusBoard keeps its own leaf mutex, taken strictly inside ours.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compi/driver.h"
#include "compi/target.h"

namespace compi {

struct CoordinatorOptions {
  /// TCP port for shard connections; 0 binds an ephemeral loopback port.
  int port = 0;
  /// Global iteration budget across all shards.
  std::int64_t budget = 1000;
  /// Iterations per lease grant.
  int lease_quota = 16;
  /// Lease lifetime without any frame from the holding shard; also the
  /// missed-heartbeat threshold for declaring a shard lost.
  int lease_ttl_ms = 10000;
  /// Message-server poll tick (lease expiry scan granularity).
  int tick_ms = 50;
  /// Session directory for checkpoint/journal/bugs/summary; empty = no
  /// persistence (in-process tests).
  std::string log_dir;
  /// Resume from the newest snapshot in <log_dir>/session.log, if any.
  bool resume = false;
  /// Write journal.jsonl into the session directory.
  bool journal = false;
  /// Republish merged state over HTTP: -1 off, 0 ephemeral, else fixed.
  int serve_port = -1;
  /// Checkpoint after this many merged deltas (and on stop).
  int checkpoint_every_deltas = 8;
  /// Record coordinator spans (lease grant/reclaim, delta merge, broadcast
  /// sync) into the trace ring and write <log_dir>/trace.json on stop —
  /// the coordinator lane `compi trace-merge` stitches shard traces onto.
  bool trace = false;
  int trace_buffer_kb = 256;
  /// Seconds without new merged coverage before the stall-diagnosis engine
  /// classifies the fleet as stalled (obs/diagnosis.h).
  double stall_window_seconds = 20.0;
};

class Coordinator {
 public:
  Coordinator(const TargetInfo& target, CoordinatorOptions options);
  ~Coordinator();  ///< stop()s if still running
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the message server (and the serve port when configured),
  /// restoring checkpointed state first when resuming.  False when the
  /// bind fails or serving is compiled out.
  [[nodiscard]] bool start();

  /// Stops the servers (reclaiming every lease still held by a live
  /// connection), writes the final checkpoint and session summary.
  void stop();

  [[nodiscard]] bool running() const;
  /// Bound shard port after start() (resolves port 0).
  [[nodiscard]] int port() const;
  /// Bound HTTP port, -1 when not serving.
  [[nodiscard]] int http_port() const;

  /// True once completed >= budget.
  [[nodiscard]] bool done() const;
  /// Blocks until done() or the timeout (0 = wait forever).  Returns
  /// done().
  bool wait_until_done(double timeout_seconds = 0.0);

  // ---- merged-state introspection (copies, taken under the lock) ----
  [[nodiscard]] std::int64_t completed() const;
  [[nodiscard]] std::int64_t budget() const;
  [[nodiscard]] std::vector<sym::BranchId> covered_ids() const;
  [[nodiscard]] std::vector<BugRecord> bugs() const;
  [[nodiscard]] std::size_t shards_joined() const;
  [[nodiscard]] std::size_t shards_lost() const;
  [[nodiscard]] std::size_t leases_reclaimed() const;
  /// The /fleet JSON document (per-shard telemetry, lease state, rates),
  /// rendered from live state — same bytes the HTTP endpoint serves.
  [[nodiscard]] std::string fleet_json() const;
  /// Current stall-diagnosis verdict: kind ("progressing",
  /// "frontier-starved", ...) and human detail sentence.
  [[nodiscard]] std::pair<std::string, std::string> diagnosis() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace compi
