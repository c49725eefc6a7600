// The shared state of one MiniMPI job: mailboxes, abort flag, the job's
// virtual clock and deadline, the (optional) chaos layer injecting
// environment-level faults, and the matching state every receive goes
// through.
//
// Every rank of a job is a fiber on one thread (fiber.h), so this state is
// touched by one rank at a time and needs no lock: a rank that must wait
// parks its fiber, and whoever makes progress possible unparks it.
//
// Job time is simulated, as in SMPI: the clock starts at 0, every MPI
// entry advances it by kCallCost, and a chaos delay parks the sender until
// the clock reaches its wake time, which the fiber scheduler jumps to
// when nothing else can run.  Nothing here reads a wall clock or sleeps,
// so a run's verdict depends on the program and the plan alone.
//
// MPI_ANY_SOURCE makes receive matching a scheduling decision: which of
// the feasible senders' messages a wildcard receive consumes depends on
// arrival order, and real MPI heisenbugs hide in the orders a single run
// never takes.  Every wildcard receive records the feasible sender set and
// the source it took (by default the lowest) into the run's *decision
// vector*, and a MatchPlan can prescribe the choice at any decision point,
// so any interleaving is a deterministic, replayable run (MPISE-style
// on-the-fly matching; see PAPERS.md).
//
// Because every rank is a fiber parked at a known point, World also
// detects deadlock *exactly*: when no rank can run and every unfinished
// rank is blocked in a receive or a collective, the job can never
// progress, and one rank throws DeadlockDetected with the wait-for cycle.
// A job that lost a message to chaos, or has a rank parked where no peer
// can wake it (a chaos stall, a delay past the deadline), ends with the
// deadline's timeout verdict instead, as it would under a real mpiexec.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/fault_plan.h"
#include "minimpi/types.h"

namespace compi::minimpi {

/// One in-flight point-to-point message.  `src` is the sender's rank local
/// to the communicator identified by `comm_uid` (communicators form
/// disjoint tag spaces, as MPI contexts do).
struct Message {
  int src = 0;
  std::int64_t comm_uid = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

class World;
class FiberScheduler;

/// Per-rank incoming message queue with (source, tag) matching.  Only the
/// owning rank receives from it, so at most one receive waits on it.
class Mailbox {
 public:
  /// Queues `msg`; true when it matches the receive the owner is parked in
  /// (the caller then unparks the owner).
  bool push(Message msg);
  /// Parks the calling rank (this mailbox's owner) until a message matching
  /// (src, comm_uid, tag) is pushed or something else unparks it.  Does not
  /// consume the message; callers rescan.
  void await(World& world, int src, std::int64_t comm_uid, int tag);

  // ---- non-blocking views (src/tag may be kAnySource / kAnyTag; comm_uid
  // always matches exactly) ----
  /// Removes and returns the first matching message, if any.
  [[nodiscard]] std::optional<Message> try_pop(int src, std::int64_t comm_uid,
                                               int tag);
  /// True when a matching message is queued.
  [[nodiscard]] bool has_matching(int src, std::int64_t comm_uid, int tag);
  /// Sorted distinct communicator-local sources with a queued message
  /// matching (comm_uid, tag).
  [[nodiscard]] std::vector<int> feasible_sources(std::int64_t comm_uid,
                                                  int tag);
  /// Everything still queued (the launcher's finalize orphan-message
  /// check).
  [[nodiscard]] const std::deque<Message>& queued() const { return queue_; }

 private:
  [[nodiscard]] static bool matches(const Message& m, int src,
                                    std::int64_t comm_uid, int tag) {
    const bool src_ok = src == kAnySource || m.src == src;
    const bool tag_ok = tag == kAnyTag || m.tag == tag;
    return m.comm_uid == comm_uid && src_ok && tag_ok;
  }

  struct Wanted {
    int src;
    std::int64_t comm_uid;
    int tag;
  };

  std::deque<Message> queue_;
  std::optional<Wanted> wanted_;  // criteria of the owner's parked receive
};

/// Job-wide shared state.  One World per launched test.
class World {
 public:
  using Time = std::chrono::nanoseconds;

  /// Virtual time one MPI entry costs.  It bounds a rank that loops on MPI
  /// calls without an instrumented branch: at about 4 us of wall time per
  /// rank-level collective, the default 30 s budget runs out after about
  /// 12 s of wall time, well inside the sandbox watchdog's derived 62 s
  /// (DESIGN.md §4.4).
  static constexpr Time kCallCost = std::chrono::microseconds(10);

  /// `budget` is the job's deadline on its virtual clock; `plan`
  /// prescribes wildcard choices to replay.
  explicit World(int size, Time budget = std::chrono::seconds(30),
                 const FaultPlan& chaos = {}, MatchPlan plan = {});

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] Mailbox& mailbox(int rank) { return mailboxes_[rank]; }

  /// Blocking receive.  `src_local` may be kAnySource; `src_global` is the
  /// sender's world rank (or kAnySource), the wait-for graph's edge.
  /// `reserved_seq` >= 0 is a decision ordinal reserved by post_irecv
  /// (posting order); otherwise an ANY_SOURCE receive draws the next one
  /// here.  Charges the job clock on entry and once per wake.  Raises
  /// JobAborted when the job aborts or its deadline passes, and
  /// DeadlockDetected on the rank elected deadlock victim.
  Message recv_message(int dest_global, int src_local, int src_global,
                       std::int64_t comm_uid, int tag, int reserved_seq = -1);

  /// Non-blocking posting step of MPI_Irecv: consumes an already-delivered
  /// matching message (recording a wildcard decision), else reserves the
  /// wildcard receive's decision ordinal in `reserved_seq` so wait()
  /// matches in posting order.
  std::optional<Message> post_irecv(int dest_global, int src_local,
                                    std::int64_t comm_uid, int tag,
                                    int& reserved_seq);

  /// Parks an early arriver of a collective until `done` is set (the last
  /// arriver unparks it).  The rank counts as collective-blocked meanwhile;
  /// raises JobAborted or DeadlockDetected as recv_message does.
  void await_collective(int global_rank, const bool& done);

  /// Rank finished (cleanly or not): it no longer counts toward the
  /// deadlock rule.  Launcher-only.
  void mark_done(int global_rank);

  /// The run's decision vector, in global match order.
  [[nodiscard]] std::vector<MatchRecord> take_trace() {
    return std::move(trace_);
  }
  /// True when a prescribed choice had to be abandoned because its message
  /// could no longer arrive (the replayed prefix diverged).
  [[nodiscard]] bool diverged() const { return diverged_; }

  /// Chaos hook for every MPI entry point: may crash this rank (throws
  /// InjectedFault) or stall it in a collective.  No-op without a plan.
  void chaos_call(int global_rank, bool collective) {
    if (chaos_) chaos_->on_mpi_call(*this, global_rank, collective);
  }

  /// Delivers a point-to-point message, applying the chaos layer's drop /
  /// delay decisions.  A drop is silent, but World remembers it: a job
  /// that lost a message is never declared deadlocked, so its blocked
  /// receiver surfaces as a timeout, as a real lost message would.
  void post(int src_global, int dest_global, Message msg);

  /// Called when a rank faults: wakes every blocked rank so the job
  /// unwinds, as mpiexec kills sibling processes of a crashed rank.
  void abort();
  [[nodiscard]] bool aborted() const { return aborted_; }
  /// Ends the job as if its deadline had passed: sets the clock to the
  /// deadline and wakes every parked rank so it unwinds (the verdict when
  /// no rank can ever run again and the job is not a deadlock).
  void expire();
  /// The pass every MPI entry makes: charges kCallCost to the clock, then
  /// raises JobAborted when the job is aborted or past its deadline.
  void check_alive();

  /// Runs the ranks' fibers to completion on the job's clock.  Whenever no
  /// rank can run and no timed sleeper wakes before the deadline, resolves
  /// the stuck state (drops a dead prescription, or declares the deadlock
  /// and wakes its victim), else expires the job.
  void run(FiberScheduler& fibers);
  /// Parks the calling rank until unpark(rank) (or abort / expiry).  Raises
  /// JobAborted outside run(), where no other rank could ever unpark it.
  void park();
  /// Makes a parked rank runnable again.
  void unpark(int global_rank);

  /// Monotonic id source for communicators (tag-space qualification).
  [[nodiscard]] std::int64_t next_comm_uid() { return ++comm_uid_; }

 private:
  enum class State : std::uint8_t {
    kRunning,
    kBlockedRecv,
    kBlockedCollective,
    kDone,
  };

  /// Per-rank matching state.
  struct Rank {
    State state = State::kRunning;
    // Criteria of the receive this rank is blocked in (kBlockedRecv only).
    int src_local = kAnySource;
    int src_global = kAnySource;
    std::int64_t comm_uid = 0;
    int tag = kAnyTag;
    std::optional<int> forced;  // prescribed wildcard source, if replaying
    int next_seq = 0;           // this rank's next ANY_SOURCE ordinal
  };

  /// Parks the calling rank until the clock reaches `wake`, or earlier when
  /// unparked (a chaos delay).
  void park_until(Time wake);
  /// The prescribed choice for (rank, seq), if the plan has one.
  [[nodiscard]] std::optional<int> planned_choice(int rank, int seq) const;
  /// Consumes the message a receive matches now, if any.  A wildcard
  /// receive takes `forced` when it is feasible (nothing otherwise), else
  /// the lowest feasible source, and records the decision.
  std::optional<Message> try_match(int dest_global, int src_local,
                                   std::int64_t comm_uid, int tag, int seq,
                                   std::optional<int> forced);
  /// Throws DeadlockDetected when `global_rank` is the elected victim.
  void check_victim(int global_rank) const;
  /// No rank can run: drops a prescription whose message can no longer
  /// arrive, else declares the deadlock and wakes its victim.  False —
  /// leaving the verdict to the deadline — when a rank is parked outside a
  /// receive or collective, or the job lost a message.
  bool resolve_stuck();
  [[nodiscard]] std::string describe_deadlock() const;

  int size_;
  std::vector<Mailbox> mailboxes_;
  bool aborted_ = false;
  std::int64_t comm_uid_ = 0;
  Time now_{0};
  Time deadline_;
  std::unique_ptr<ChaosEngine> chaos_;
  FiberScheduler* fibers_ = nullptr;

  MatchPlan plan_;
  std::vector<Rank> ranks_;
  std::vector<MatchRecord> trace_;
  int victim_ = -1;  // rank elected to throw DeadlockDetected
  std::string deadlock_msg_;
  bool diverged_ = false;
  bool lost_message_ = false;  // chaos dropped a message this job
};

}  // namespace compi::minimpi
