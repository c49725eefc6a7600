// The shared state of one MiniMPI job: mailboxes, abort flag, the job's
// virtual clock and deadline, and the (optional) chaos layer injecting
// environment-level faults.
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
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
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
class MatchScheduler;
class FiberScheduler;

/// Per-rank incoming message queue with (source, tag) matching.  Only the
/// owning rank receives from it, so at most one receive waits on it.
class Mailbox {
 public:
  /// Queues `msg`; true when it matches the receive the owner is parked in
  /// (the caller then unparks the owner).
  bool push(Message msg);
  /// Blocks until a matching message arrives (src/tag may be kAnySource /
  /// kAnyTag; comm_uid always matches exactly).  Raises JobAborted when the
  /// job aborts, its virtual deadline passes, or no rank can run.
  Message pop_matching(World& world, int src, std::int64_t comm_uid, int tag);
  /// Parks the calling rank (this mailbox's owner) until a message matching
  /// (src, comm_uid, tag) is pushed or something else unparks it.  Does not
  /// consume the message; callers rescan.
  void await(World& world, int src, std::int64_t comm_uid, int tag);

  // ---- non-blocking views (the match scheduler's matching primitives) ----
  /// Removes and returns the first matching message, if any.
  [[nodiscard]] std::optional<Message> try_pop(int src, std::int64_t comm_uid,
                                               int tag);
  /// True when a matching message is queued.
  [[nodiscard]] bool has_matching(int src, std::int64_t comm_uid, int tag);
  /// Sorted distinct communicator-local sources with a queued message
  /// matching (comm_uid, tag).
  [[nodiscard]] std::vector<int> feasible_sources(std::int64_t comm_uid,
                                                  int tag);
  /// Removes and returns everything still queued (the launcher's finalize
  /// orphan-message check).
  [[nodiscard]] std::deque<Message> drain();

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

  /// `budget` is the job's deadline on its virtual clock.
  explicit World(int size, Time budget = std::chrono::seconds(30),
                 const FaultPlan& chaos = {});
  ~World();  // out of line: MatchScheduler is forward-declared here

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] Mailbox& mailbox(int rank) { return mailboxes_[rank]; }

  /// Installs the match scheduler (wildcard decision recording / replay,
  /// exact deadlock detection).  Launcher-only: call before any rank runs.
  void enable_match_scheduler(MatchPlan plan);
  [[nodiscard]] MatchScheduler* match_scheduler() { return scheduler_.get(); }

  /// Receive dispatch: through the scheduler when installed, else a direct
  /// blocking mailbox match.  `src_local`/`src_global` may be kAnySource;
  /// `reserved_seq` is a decision ordinal reserved by post_irecv (or -1).
  Message recv_message(int dest_global, int src_local, int src_global,
                       std::int64_t comm_uid, int tag, int reserved_seq = -1);

  /// Non-blocking posting step of MPI_Irecv: consumes an already-delivered
  /// matching message, else (under the scheduler) reserves the receive's
  /// decision ordinal in `reserved_seq` so wait() matches in posting order.
  std::optional<Message> post_irecv(int dest_global, int src_local,
                                    std::int64_t comm_uid, int tag,
                                    int& reserved_seq);

  /// Chaos hook for every MPI entry point: may crash this rank (throws
  /// InjectedFault) or stall it in a collective.  No-op without a plan.
  void chaos_call(int global_rank, bool collective) {
    if (chaos_) chaos_->on_mpi_call(*this, global_rank, collective);
  }

  /// Delivers a point-to-point message, applying the chaos layer's drop /
  /// delay decisions (drops are silent — the blocked receiver surfaces as a
  /// timeout, as a real lost message would).
  void post(int src_global, int dest_global, Message msg);

  /// Called when a rank faults: wakes every blocked rank so the job
  /// unwinds, as mpiexec kills sibling processes of a crashed rank.
  void abort();
  [[nodiscard]] bool aborted() const { return aborted_; }
  /// Ends the job as if its deadline had passed: sets the clock to the
  /// deadline and wakes every parked rank so it unwinds (the launcher's
  /// verdict when no rank can ever run again).
  void expire();
  /// The pass every MPI entry makes: charges kCallCost to the clock, then
  /// raises JobAborted when the job is aborted or past its deadline.
  void check_alive();

  /// Runs the ranks' fibers to completion on the job's clock.  `stuck` is
  /// called whenever no rank can run and no timed sleeper wakes before the
  /// deadline; it must unpark a rank (World::expire() does).
  void run(FiberScheduler& fibers, const std::function<void()>& stuck);
  /// Parks the calling rank until unpark(rank) (or abort / expiry).  Raises
  /// JobAborted outside run(), where no other rank could ever unpark it.
  void park();
  /// Makes a parked rank runnable again.
  void unpark(int global_rank);

  /// Monotonic id source for communicators (tag-space qualification).
  [[nodiscard]] std::int64_t next_comm_uid() { return ++comm_uid_; }

 private:
  /// Parks the calling rank until the clock reaches `wake`, or earlier when
  /// unparked (a chaos delay).
  void park_until(Time wake);

  int size_;
  std::vector<Mailbox> mailboxes_;
  bool aborted_ = false;
  std::int64_t comm_uid_ = 0;
  Time now_{0};
  Time deadline_;
  std::unique_ptr<ChaosEngine> chaos_;
  std::unique_ptr<MatchScheduler> scheduler_;
  FiberScheduler* fibers_ = nullptr;
};

}  // namespace compi::minimpi
