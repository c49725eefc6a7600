// The shard side of the coordinator protocol: a WorkSource over TCP.
//
// A ShardLink connects a campaign engine (--connect=HOST:PORT) to a
// `compi coordinate` process.  acquire() pulls time-bounded leases and
// hands the engine up to the quota it asks for; report() uploads
// full-state deltas (coverage, bugs, ledger) on a batched cadence; a
// background thread heartbeats to keep leases alive and pulls the
// coordinator's coverage broadcast back for take_remote_coverage().
//
// Failure behaviour (the whole point): every socket error marks the link
// disconnected and schedules a reconnect with exponential backoff plus
// deterministic jitter.  After `standalone_after_failures` consecutive
// failures the link DEGRADES: acquire() grants whatever is asked and
// the campaign continues standalone — local frontier, local checkpoint —
// while the background thread keeps retrying forever.  When the
// coordinator returns, the link re-handshakes and reconciles by uploading
// its full local state (deltas are cumulative and idempotent, so nothing
// is lost or double-counted), then resumes the lease protocol.
//
// Thread model: one mutex guards everything, including socket I/O (the
// socket is strictly request/response, so a transaction is atomic under
// the lock).  acquire() releases the lock while waiting; the heartbeat
// thread wakes every ~50ms.  Safe for concurrent calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compi/work_source.h"

namespace compi {

struct ShardLinkOptions {
  /// Coordinator address: "host:port", ":port", or "port" (loopback).
  std::string connect;
  /// Human-chosen shard name; the wire identity is name@token where the
  /// token is minted per process (see coord_protocol.h).
  std::string name = "shard";
  /// Campaign seed, reported in the Hello for the coordinator's logs.
  std::uint64_t seed = 0;
  int heartbeat_ms = 1000;
  /// Socket connect/recv/send timeout.
  int io_timeout_ms = 5000;
  int reconnect_initial_ms = 100;
  int reconnect_max_ms = 3000;
  /// Consecutive connection failures before degrading to standalone mode.
  int standalone_after_failures = 5;
  /// Transmit a delta at least every N report() calls even when nothing
  /// changed (coverage/bug changes and lease exhaustion transmit at once).
  int report_every = 4;
  /// Poll cadence while waiting for a lease or a reconnect.
  int lease_wait_poll_ms = 50;
};

class ShardLink final : public WorkSource {
 public:
  explicit ShardLink(ShardLinkOptions options);
  ~ShardLink() override;  ///< stops the background thread
  ShardLink(const ShardLink&) = delete;
  ShardLink& operator=(const ShardLink&) = delete;

  /// Starts the background thread and attempts the first connection.
  /// Returns whether that first attempt succeeded — false is NOT fatal:
  /// the link keeps retrying and the campaign runs standalone meanwhile.
  bool start();

  /// Flushes the final delta and sends Finished (clean departure).  Call
  /// after the campaign loop returns; safe when disconnected (no-op).
  void finish();

  // ---- WorkSource ----
  [[nodiscard]] int acquire(int wanted) override;
  void report(const WorkDelta& delta) override;
  [[nodiscard]] std::vector<sym::BranchId> take_remote_coverage() override;
  [[nodiscard]] std::vector<std::uint64_t> take_remote_interleavings()
      override;

  // ---- introspection (tests, CLI logging) ----
  [[nodiscard]] bool connected() const;
  /// Operating standalone after repeated connection failures.
  [[nodiscard]] bool standalone() const;
  /// The coordinator declared the global budget done.
  [[nodiscard]] bool stopped() const;
  /// The wire identity ("name@token").
  [[nodiscard]] std::string key() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace compi
