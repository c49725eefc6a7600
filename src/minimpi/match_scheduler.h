// Central scheduler for message-matching nondeterminism.
//
// MPI_ANY_SOURCE makes receive matching a scheduling decision: which of the
// feasible senders' messages the receive consumes depends on arrival order,
// and real MPI heisenbugs hide in the orders a single run never takes.  When
// enabled, every receive in the job consults this scheduler instead of
// blocking on its mailbox directly.  For each wildcard receive it records
// the feasible sender set and the choice taken — the run's *decision
// vector* — and it can replay a prescribed choice at any decision point, so
// any interleaving the driver wants to explore is a deterministic,
// replayable plan (MPISE-style on-the-fly matching; see PAPERS.md).
//
// Because every rank is a fiber parked at a known point, the scheduler also
// detects deadlock *exactly*: when no rank can run (the fiber scheduler's
// run queue is empty) and no blocked receive has a feasible message, the
// job can never progress, and one rank throws DeadlockDetected with the
// wait-for cycle — instantly, instead of burning the wall-clock watchdog
// (`--hang-timeout-ms`), which remains as the fallback for uninstrumented
// infinite loops that never block in MPI.  At finalize the launcher asks
// for unreceived messages (orphans), the other silent matching bug.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "minimpi/types.h"
#include "minimpi/world.h"

namespace compi::minimpi {

// MatchDecision / MatchPlan / MatchRecord live in types.h (World accepts a
// plan without depending on this header).

class MatchScheduler {
 public:
  MatchScheduler(World& world, MatchPlan plan);

  /// Blocking receive through the scheduler.  `src_local` may be
  /// kAnySource; `src_global` is the world rank of the sender (or
  /// kAnySource) — used for wait-for-graph edges.  `reserved_seq` >= 0
  /// replays a decision ordinal reserved by post_irecv (posting order);
  /// otherwise ANY_SOURCE receives draw the next ordinal here.  Throws
  /// DeadlockDetected on this rank when it is the chosen deadlock victim.
  Message recv(int dest_global, int src_local, int src_global,
               std::int64_t comm_uid, int tag, int reserved_seq = -1);

  /// Non-blocking posting step of MPI_Irecv: matches immediately when a
  /// message is already feasible (recording the decision), otherwise
  /// reserves this receive's decision ordinal in `reserved_seq` so the
  /// eventual wait() matches in posting order.
  std::optional<Message> post_irecv(int dest_global, int src_local,
                                    std::int64_t comm_uid, int tag,
                                    int& reserved_seq);

  /// Blocked-state bracketing for collective waits (CollectiveSlot): the
  /// victim rule and the deadlock text read it.
  void block_collective(int global_rank);
  void unblock_collective(int global_rank);

  /// Throws DeadlockDetected when `global_rank` is the elected victim
  /// (called by a parked rank when it is woken).
  void check_victim(int global_rank) const;

  /// Rank finished (cleanly or not).
  void mark_done(int global_rank);

  /// Called when no rank can run.  Resolves replay divergence (drops a
  /// prescription whose message can no longer arrive) or declares the
  /// deadlock and wakes its victim.  Returns false — leaving the verdict to
  /// the wall-clock rule — when a rank is parked outside a receive or
  /// collective (a chaos stall or a delay running into the deadline).
  bool resolve_stuck();

  /// The run's decision vector, in global match order.
  [[nodiscard]] std::vector<MatchRecord> take_trace();
  /// True when a prescribed choice had to be abandoned because its message
  /// could no longer arrive (the replayed prefix diverged).
  [[nodiscard]] bool diverged() const;

 private:
  enum class State : std::uint8_t {
    kRunning,
    kBlockedRecv,
    kBlockedCollective,
    kDone,
  };

  struct RankState {
    State state = State::kRunning;
    // Criteria of the receive this rank is blocked in (kBlockedRecv only).
    int src_local = kAnySource;
    int src_global = kAnySource;
    std::int64_t comm_uid = 0;
    int tag = kAnyTag;
    std::optional<int> forced;  // prescribed wildcard source, if replaying
  };

  /// Looks up a prescribed choice for (rank, seq).
  [[nodiscard]] std::optional<int> planned_choice(int rank, int seq) const;
  void declare_deadlock();
  [[nodiscard]] std::string describe_deadlock() const;

  World& world_;
  MatchPlan plan_;
  std::vector<RankState> ranks_;
  std::vector<int> next_seq_;  // per-rank ANY_SOURCE ordinal source
  std::vector<MatchRecord> trace_;
  int victim_ = -1;            // rank elected to throw DeadlockDetected
  std::string deadlock_msg_;
  bool diverged_ = false;
};

}  // namespace compi::minimpi
