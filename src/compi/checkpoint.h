// Campaign checkpoints: crash-resilient testing sessions.
//
// A long campaign must survive being killed: SessionWriter periodically
// snapshots the full driver state — registry, RNG-bearing search-strategy
// state, coverage bitmap, bug records, and the already-planned next test —
// into <dir>/checkpoint.txt, and Campaign::run can resume from it,
// continuing deterministically where the killed process stopped (same
// coverage, bug list, and iteration tail as an uninterrupted run).
//
// The snapshot holds state, not history: its size does not grow with the
// iteration count.  The per-iteration records live in the append-only
// <dir>/iterations.csv; the snapshot only says how many of its rows it
// spans, and read_checkpoint (session.h) rebuilds them from the CSV.
//
// The format is line-oriented text.  Strings are escaped (\n, \r, \\) so
// multi-line fault messages round-trip; doubles use shortest-round-trip
// formatting so restored timings are bit-exact.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "compi/driver.h"
#include "compi/interleaving.h"
#include "runtime/var_registry.h"
#include "solver/predicate.h"
#include "symbolic/path.h"
#include "symbolic/serialize.h"

namespace compi::ckpt {

// ---- low-level serialization helpers (shared with session files) ----
// The implementations live in symbolic/serialize.h so lower layers (the
// sandbox wire format) can share the exact same dialect; these aliases
// keep the historical ckpt:: spellings working.
using serial::escape;
using serial::format_double;
using serial::read_path;
using serial::read_predicate;
using serial::unescape;
using serial::write_path;
using serial::write_predicate;

// ---- shared line-oriented parsing helpers ----
// Used by the checkpoint itself and by the coordinator wire protocol
// (coord_protocol.cc), which speaks the same dialect so bug records and
// opaque blobs round-trip identically over TCP and through snapshots.

/// Expects the next whitespace-delimited token to equal `tag`; poisons the
/// stream otherwise.
bool expect(std::istream& is, std::string_view tag);
/// Reads the rest of the line (after one separating space) as a string.
std::string read_tail(std::istream& is);
/// Embeds an opaque multi-line blob, prefixed with its line count.
void write_blob(std::ostream& os, std::string_view tag,
                const std::string& blob);
bool read_blob(std::istream& is, std::string_view tag, std::string& blob);
/// One bug record in the checkpoint dialect (bug/msg/inputs/named/decisions
/// lines).  The checkpoint's bug list and the coordinator's delta frames
/// are both sequences of these.
void write_bug(std::ostream& os, const BugRecord& b);
[[nodiscard]] bool read_bug(std::istream& is, BugRecord& b);

// ---- the campaign snapshot ----

/// A worker's search line between iterations: the already-planned next
/// test and the backtracking flags.  The live worker (driver.cc) and its
/// WorkerCursor share it.
struct SearchLine {
  TestPlan plan;
  bool next_is_restart = true;
  std::optional<std::size_t> pending_depth;
  int failures = 0;
  int consecutive_replans = 0;
  bool bounded_phase = false;
};

/// One campaign worker's private loop state: everything a worker needs to
/// continue after a kill — its search line, its own strategy snapshot, its
/// variable registry, and its interleaving queue.  A serial campaign is one
/// worker, hence one cursor.
struct WorkerCursor : SearchLine {
  /// The worker's BoundedDFS bound (each worker derives its own).
  std::size_t depth_bound = 0;
  std::string strategy_name;
  std::string strategy_state;
  /// The worker's variable metadata in id order (re-interned verbatim on
  /// resume so its solver variable ids stay stable across the kill).
  std::vector<rt::VarMeta> registry;
  /// Reordered matchings this worker forked and has not replayed yet
  /// (--explore-matchings), and the id its next fork gets.
  std::vector<PendingInterleaving> pending_interleavings;
  std::int64_t next_interleaving_id = 1;
};

/// One outstanding coordinator lease: quota not yet reported back by the
/// holding shard.  Deadlines are NOT persisted — a coordinator restart
/// reclaims every restored lease immediately (journal `lease_reclaimed`),
/// which is safe because re-execution is idempotent.
struct CoordLease {
  std::uint64_t id = 0;
  /// Shard key ("name@token", see coord_protocol.h).
  std::string shard;
  /// Iterations granted but not yet reported.
  int remaining = 0;
};

/// Per-shard merge cursor: the cumulative iteration count already folded
/// into the coordinator's completed total (deltas carry cumulative counts,
/// so replays merge to the same state), and how far down the coordinator's
/// covered log the shard has been synced.
struct CoordShardCursor {
  std::string shard;
  std::int64_t iterations_completed = 0;
  std::size_t covered_cursor = 0;
};

/// The accumulated counters are the inherited CampaignCounters (the
/// `counters`, `sandbox`, v8 `sandbox2` and `match_frontier` lines).
struct CampaignCheckpoint : CampaignCounters {
  // v11: the variable registry, the pending interleavings and the next
  // interleaving id move into the worker cursors — each worker owns its
  // own (`cursor_registry`, `cursor_pending` sections) — and each cursor
  // carries its worker's depth bound.
  // (v10 moved the iteration history out to iterations.csv — the
  // `iterations N F` line keeps only the row count and the finished flag,
  // with no `iter` lines; v9 moved the driver loop state into the worker
  // cursors — a serial campaign writes one — instead of top-level
  // plan/strategy lines; v8 added the `sandbox2` line with the fork-server
  // engine counters; v7 the optional coordinator section (`coord 1`) —
  // global budget/completed counters, outstanding leases, and per-shard
  // merge cursors; v6
  // interleaving ids/decision vectors and the interleaving frontier; v5
  // worker ordinals and per-worker cursors; v4 the coverage-attribution
  // ledger snapshot; v3 the sandbox accounting line; v2 solver_nodes and
  // retries on iter lines.)  Older snapshots are rejected and the campaign
  // falls back to a fresh start, by design.
  static constexpr int kVersion = 11;

  /// Campaign seed the snapshot was taken under (resume sanity check).
  std::uint64_t seed = 0;
  /// First iteration the resumed campaign should execute.
  int next_iteration = 0;
  /// The snapshot's history: the number of iterations.csv rows below
  /// next_iteration, one per ordinal.  A mid-campaign snapshot spans every
  /// ordinal before its resume point, so this equals next_iteration; read()
  /// rejects anything else.  Coordinator snapshots have no CSV and span 0.
  std::size_t history_rows = 0;
  /// Set on the end-of-campaign snapshot only.  A campaign stopped early
  /// (bug or time budget) points next_iteration at the budget so a resume
  /// runs nothing, and its history may then span fewer rows than that.
  bool finished = false;
  /// Those rows, in iteration order.  Not part of the snapshot text:
  /// read() leaves this empty and write() ignores it; read_checkpoint
  /// fills it from the session's iterations.csv.
  std::vector<IterationRecord> iterations;
  std::vector<BugRecord> bugs;
  std::vector<sym::BranchId> covered;
  /// Fault signatures already classified as genuine hangs (not retried).
  std::vector<std::string> known_hang_signatures;

  /// The interleaving sleep set (--explore-matchings); each worker's
  /// queue lives in its cursor.
  std::vector<std::uint64_t> interleaving_seen;  // sorted on write

  /// Coverage-attribution ledger snapshot (CoverageLedger::write), embedded
  /// as an opaque blob so attribution survives kill + --resume.  Empty when
  /// the producing campaign predates the ledger (never the case for v4+
  /// writers, but read() tolerates an empty blob).
  std::string ledger_state;

  /// One cursor per campaign worker.  A resume whose --workers disagrees
  /// with the cursor count starts fresh rather than guessing how to remap
  /// search lines.  Coordinator snapshots carry none.
  std::vector<WorkerCursor> worker_cursors;

  /// Coordinator section (v7): present only for `compi coordinate`
  /// snapshots.  Campaign-engine snapshots write `coord 0` and none of the
  /// fields, keeping standalone checkpoints byte-compatible in shape.
  bool is_coordinator = false;
  std::int64_t coord_budget = 0;
  std::int64_t coord_completed = 0;
  std::uint64_t coord_next_lease_id = 1;
  std::vector<CoordLease> coord_leases;
  std::vector<CoordShardCursor> coord_shards;

  void write(std::ostream& os) const;
  /// nullopt on version mismatch or any parse error (the caller then
  /// starts a fresh campaign instead of resuming garbage).
  [[nodiscard]] static std::optional<CampaignCheckpoint> read(
      std::istream& is);
};

}  // namespace compi::ckpt
