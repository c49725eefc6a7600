#include "minimpi/world.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "minimpi/fiber.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/faults.h"

namespace compi::minimpi {

namespace {
obs::Counter& drops_counter() {
  static obs::Counter& c = obs::registry().counter(
      "compi_chaos_drops_total", "Messages dropped by chaos injection");
  return c;
}
obs::Counter& delays_counter() {
  static obs::Counter& c = obs::registry().counter(
      "compi_chaos_delays_total", "Messages delayed by chaos injection");
  return c;
}
obs::Counter& match_counter() {
  static obs::Counter& c = obs::registry().counter(
      "compi_match_choices_total", "Wildcard-receive match decisions taken");
  return c;
}
obs::Counter& deadlock_counter() {
  static obs::Counter& c = obs::registry().counter(
      "compi_deadlocks_total",
      "Exact deadlocks proven by the all-blocked rule");
  return c;
}
obs::Counter& divergence_counter() {
  static obs::Counter& c = obs::registry().counter(
      "compi_match_divergences_total",
      "Replay prescriptions abandoned because the prefix diverged");
  return c;
}
}  // namespace

World::World(int size, Time budget, const FaultPlan& chaos, MatchPlan plan)
    : size_(size),
      mailboxes_(static_cast<std::size_t>(size)),
      deadline_(budget),
      plan_(std::move(plan)),
      ranks_(static_cast<std::size_t>(size)) {
  if (chaos.enabled()) chaos_ = std::make_unique<ChaosEngine>(chaos, size);
}

std::optional<int> World::planned_choice(int rank, int seq) const {
  for (const MatchDecision& d : plan_) {
    if (d.rank == rank && d.seq == seq) return d.src;
  }
  return std::nullopt;
}

std::optional<Message> World::try_match(int dest_global, int src_local,
                                        std::int64_t comm_uid, int tag,
                                        int seq, std::optional<int> forced) {
  Mailbox& mb = mailbox(dest_global);
  if (src_local != kAnySource) return mb.try_pop(src_local, comm_uid, tag);
  std::vector<int> feasible = mb.feasible_sources(comm_uid, tag);
  int choice = -1;
  if (forced) {
    if (std::binary_search(feasible.begin(), feasible.end(), *forced)) {
      choice = *forced;
    }
  } else if (!feasible.empty()) {
    choice = feasible.front();
  }
  if (choice < 0) return std::nullopt;
  std::optional<Message> msg = mb.try_pop(choice, comm_uid, tag);
  trace_.push_back(
      {dest_global, seq, choice, comm_uid, tag, std::move(feasible)});
  match_counter().inc();
  obs::instant(obs::Cat::kMatch, "match_choice", "src", choice);
  return msg;
}

Message World::recv_message(int dest_global, int src_local, int src_global,
                            std::int64_t comm_uid, int tag,
                            int reserved_seq) {
  Rank& rs = ranks_[dest_global];
  rs.src_local = src_local;
  rs.src_global = src_global;
  rs.comm_uid = comm_uid;
  rs.tag = tag;
  rs.forced.reset();
  int seq = reserved_seq;
  if (src_local == kAnySource) {
    if (seq < 0) seq = rs.next_seq++;
    rs.forced = planned_choice(dest_global, seq);
  }
  for (;;) {
    check_alive();
    if (auto msg =
            try_match(dest_global, src_local, comm_uid, tag, seq, rs.forced)) {
      rs.state = State::kRunning;
      return std::move(*msg);
    }
    rs.state = State::kBlockedRecv;
    // A prescribed receive wakes only for its prescribed sender; dropping a
    // dead prescription (resolve_stuck) wakes it explicitly.
    mailbox(dest_global)
        .await(*this, rs.forced ? *rs.forced : src_local, comm_uid, tag);
    check_victim(dest_global);
  }
}

std::optional<Message> World::post_irecv(int dest_global, int src_local,
                                         std::int64_t comm_uid, int tag,
                                         int& reserved_seq) {
  // The decision ordinal is drawn at posting time, so wildcard matching
  // order follows irecv posting order even when wait() comes much later.
  const int seq =
      src_local == kAnySource ? ranks_[dest_global].next_seq++ : -1;
  std::optional<Message> msg =
      try_match(dest_global, src_local, comm_uid, tag, seq,
                planned_choice(dest_global, seq));
  reserved_seq = msg ? -1 : seq;
  return msg;
}

void World::await_collective(int global_rank, const bool& done) {
  Rank& rs = ranks_[global_rank];
  rs.state = State::kBlockedCollective;
  struct Unblock {
    Rank& rs;
    ~Unblock() {
      if (rs.state == State::kBlockedCollective) rs.state = State::kRunning;
    }
  } unblock{rs};
  while (!done) {
    park();
    if (done) break;
    check_victim(global_rank);
    check_alive();
  }
}

void World::mark_done(int global_rank) {
  ranks_[global_rank].state = State::kDone;
}

void World::check_victim(int global_rank) const {
  if (victim_ == global_rank) throw rt::DeadlockDetected(deadlock_msg_);
}

void World::post(int src_global, int dest_global, Message msg) {
  if (chaos_) {
    if (chaos_->should_drop(src_global)) {
      lost_message_ = true;
      drops_counter().inc();
      obs::instant(obs::Cat::kChaos, "chaos_drop", "dest", dest_global);
      return;
    }
    const auto delay = chaos_->next_delay(src_global);
    if (delay.count() > 0) {
      delays_counter().inc();
      obs::ObsSpan span(obs::Cat::kChaos, "chaos_delay", "ms",
                        delay.count());
      // The sender parks until the clock passes the delay; a wake at or
      // past the deadline is never reached, and the job ends as a timeout.
      park_until(now_ + delay);
      check_alive();
    }
  }
  if (mailbox(dest_global).push(std::move(msg))) unpark(dest_global);
}

void World::abort() {
  aborted_ = true;
  if (fibers_ != nullptr) fibers_->unpark_all();
}

void World::expire() {
  now_ = std::max(now_, deadline_);
  if (fibers_ != nullptr) fibers_->unpark_all();
}

void World::check_alive() {
  now_ += kCallCost;
  if (aborted_ || now_ >= deadline_) throw JobAborted{};
}

void World::run(FiberScheduler& fibers) {
  fibers_ = &fibers;
  fibers.run(now_, deadline_, [this] {
    if (!resolve_stuck()) expire();
  });
  fibers_ = nullptr;
}

bool World::resolve_stuck() {
  if (victim_ >= 0 || aborted_) return false;
  // Every parked receive was woken by any message matching it, so no rank
  // can make progress under the plan.  Replay divergence: a prescribed
  // source can no longer arrive, but other messages are feasible — drop the
  // prescription and let the receive take the default instead of
  // false-deadlocking.
  for (int r = 0; r < size_; ++r) {
    Rank& rs = ranks_[r];
    if (rs.state == State::kBlockedRecv && rs.forced &&
        mailbox(r).has_matching(kAnySource, rs.comm_uid, rs.tag)) {
      rs.forced.reset();
      diverged_ = true;
      divergence_counter().inc();
      unpark(r);
      return true;
    }
  }
  // A lost message might have woken its receiver, and a rank parked
  // outside a receive or collective (a chaos stall or delay) waits for the
  // deadline: neither job is a deadlock of the program.
  if (lost_message_) return false;
  for (const Rank& rs : ranks_) {
    if (rs.state == State::kRunning) return false;
  }
  // The victim is the lowest receive-blocked rank, else the lowest
  // collective-blocked one.
  deadlock_msg_ = describe_deadlock();
  for (const State blocked : {State::kBlockedRecv, State::kBlockedCollective}) {
    for (int r = 0; r < size_ && victim_ < 0; ++r) {
      if (ranks_[r].state == blocked) victim_ = r;
    }
  }
  deadlock_counter().inc();
  obs::instant(obs::Cat::kMatch, "deadlock", "victim", victim_);
  unpark(victim_);
  return true;
}

std::string World::describe_deadlock() const {
  std::ostringstream os;
  os << "deadlock:";
  bool first = true;
  for (int r = 0; r < size_; ++r) {
    const Rank& rs = ranks_[r];
    if (rs.state == State::kDone) continue;
    if (!first) os << ',';
    first = false;
    if (rs.state == State::kBlockedCollective) {
      os << " rank " << r << " waits collective";
      continue;
    }
    os << " rank " << r << " waits recv(src=";
    if (rs.forced) {
      os << *rs.forced;
    } else if (rs.src_local == kAnySource) {
      os << "ANY";
    } else {
      os << rs.src_global;
    }
    os << ", tag=";
    if (rs.tag == kAnyTag) {
      os << '*';
    } else {
      os << rs.tag;
    }
    os << ')';
  }
  // Best-effort wait-for cycle over the specific-source edges.
  std::vector<int> succ(static_cast<std::size_t>(size_), -1);
  for (int r = 0; r < size_; ++r) {
    const Rank& rs = ranks_[r];
    if (rs.state == State::kBlockedRecv && rs.src_local != kAnySource &&
        rs.src_global >= 0) {
      succ[r] = rs.src_global;
    }
  }
  for (int start = 0; start < size_; ++start) {
    if (succ[start] < 0) continue;
    std::vector<int> pos(static_cast<std::size_t>(size_), -1);
    std::vector<int> path;
    int cur = start;
    while (cur >= 0 && cur < size_ && pos[cur] < 0) {
      pos[cur] = static_cast<int>(path.size());
      path.push_back(cur);
      cur = succ[cur];
    }
    if (cur >= 0 && cur < size_ && pos[cur] >= 0) {
      os << "; cycle: ";
      for (std::size_t i = static_cast<std::size_t>(pos[cur]);
           i < path.size(); ++i) {
        os << path[i] << "->";
      }
      os << cur;
      break;
    }
  }
  return os.str();
}

void World::park() {
  // Outside a launch nothing else can run, so the wait can never end.
  if (fibers_ == nullptr || fibers_->self() < 0) throw JobAborted{};
  fibers_->park();
}

void World::park_until(Time wake) {
  if (fibers_ == nullptr || fibers_->self() < 0) throw JobAborted{};
  fibers_->park_until(wake);
}

void World::unpark(int global_rank) {
  if (fibers_ != nullptr) fibers_->unpark(global_rank);
}

bool Mailbox::push(Message msg) {
  const bool wakes = wanted_ && matches(msg, wanted_->src, wanted_->comm_uid,
                                        wanted_->tag);
  queue_.push_back(std::move(msg));
  return wakes;
}

void Mailbox::await(World& world, int src, std::int64_t comm_uid, int tag) {
  wanted_ = Wanted{src, comm_uid, tag};
  struct Clear {
    std::optional<Wanted>& w;
    ~Clear() { w.reset(); }
  } clear{wanted_};
  world.park();
}

std::optional<Message> Mailbox::try_pop(int src, std::int64_t comm_uid,
                                        int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, src, comm_uid, tag)) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
  }
  return std::nullopt;
}

bool Mailbox::has_matching(int src, std::int64_t comm_uid, int tag) {
  for (const Message& m : queue_) {
    if (matches(m, src, comm_uid, tag)) return true;
  }
  return false;
}

std::vector<int> Mailbox::feasible_sources(std::int64_t comm_uid, int tag) {
  // Sorted insertion: a mailbox holds many messages from few senders.
  std::vector<int> out;
  for (const Message& m : queue_) {
    if (!matches(m, kAnySource, comm_uid, tag)) continue;
    const auto at = std::lower_bound(out.begin(), out.end(), m.src);
    if (at == out.end() || *at != m.src) out.insert(at, m.src);
  }
  return out;
}

}  // namespace compi::minimpi
