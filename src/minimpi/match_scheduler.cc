#include "minimpi/match_scheduler.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/faults.h"

namespace compi::minimpi {

namespace {

obs::Counter& match_counter() {
  static obs::Counter& c = obs::registry().counter(
      "compi_match_choices_total", "Wildcard-receive match decisions taken");
  return c;
}

obs::Counter& deadlock_counter() {
  static obs::Counter& c = obs::registry().counter(
      "compi_deadlocks_total", "Exact deadlocks proven by the match scheduler");
  return c;
}

obs::Counter& divergence_counter() {
  static obs::Counter& c = obs::registry().counter(
      "compi_match_divergences_total",
      "Replay prescriptions abandoned because the prefix diverged");
  return c;
}

}  // namespace

MatchScheduler::MatchScheduler(World& world, MatchPlan plan)
    : world_(world),
      plan_(std::move(plan)),
      ranks_(static_cast<std::size_t>(world.size())),
      next_seq_(static_cast<std::size_t>(world.size()), 0) {}

std::optional<int> MatchScheduler::planned_choice(int rank, int seq) const {
  for (const MatchDecision& d : plan_) {
    if (d.rank == rank && d.seq == seq) return d.src;
  }
  return std::nullopt;
}

Message MatchScheduler::recv(int dest_global, int src_local, int src_global,
                             std::int64_t comm_uid, int tag,
                             int reserved_seq) {
  RankState& rs = ranks_[dest_global];
  rs.src_local = src_local;
  rs.src_global = src_global;
  rs.comm_uid = comm_uid;
  rs.tag = tag;
  rs.forced.reset();
  int seq = reserved_seq;
  if (src_local == kAnySource) {
    if (seq < 0) seq = next_seq_[dest_global]++;
    rs.forced = planned_choice(dest_global, seq);
  }
  Mailbox& mb = world_.mailbox(dest_global);
  for (;;) {
    if (src_local != kAnySource) {
      if (auto msg = mb.try_pop(src_local, comm_uid, tag)) {
        rs.state = State::kRunning;
        return std::move(*msg);
      }
    } else {
      const std::vector<int> feasible = mb.feasible_sources(comm_uid, tag);
      int choice = -1;
      if (rs.forced) {
        if (std::binary_search(feasible.begin(), feasible.end(),
                               *rs.forced)) {
          choice = *rs.forced;
        }
      } else if (!feasible.empty()) {
        choice = feasible.front();
      }
      if (choice >= 0) {
        auto msg = mb.try_pop(choice, comm_uid, tag);
        trace_.push_back({dest_global, seq, choice, comm_uid, tag, feasible});
        match_counter().inc();
        obs::instant(obs::Cat::kMatch, "match_choice", "src", choice);
        rs.state = State::kRunning;
        return std::move(*msg);
      }
    }
    rs.state = State::kBlockedRecv;
    world_.check_alive();
    // A prescribed receive wakes only for its prescribed sender; dropping a
    // dead prescription (resolve_stuck) wakes it explicitly.
    mb.await(world_, rs.forced ? *rs.forced : src_local, comm_uid, tag);
    check_victim(dest_global);
    world_.check_alive();
  }
}

std::optional<Message> MatchScheduler::post_irecv(int dest_global,
                                                  int src_local,
                                                  std::int64_t comm_uid,
                                                  int tag, int& reserved_seq) {
  reserved_seq = -1;
  Mailbox& mb = world_.mailbox(dest_global);
  if (src_local != kAnySource) {
    return mb.try_pop(src_local, comm_uid, tag);
  }
  // The decision ordinal is drawn at posting time, so wildcard matching
  // order follows irecv posting order even when wait() comes much later.
  const int seq = next_seq_[dest_global]++;
  const std::optional<int> forced = planned_choice(dest_global, seq);
  const std::vector<int> feasible = mb.feasible_sources(comm_uid, tag);
  int choice = -1;
  if (forced) {
    if (std::binary_search(feasible.begin(), feasible.end(), *forced)) {
      choice = *forced;
    }
  } else if (!feasible.empty()) {
    choice = feasible.front();
  }
  if (choice < 0) {
    reserved_seq = seq;
    return std::nullopt;
  }
  auto msg = mb.try_pop(choice, comm_uid, tag);
  trace_.push_back({dest_global, seq, choice, comm_uid, tag, feasible});
  match_counter().inc();
  obs::instant(obs::Cat::kMatch, "match_choice", "src", choice);
  return msg;
}

void MatchScheduler::block_collective(int global_rank) {
  ranks_[global_rank].state = State::kBlockedCollective;
}

void MatchScheduler::unblock_collective(int global_rank) {
  if (ranks_[global_rank].state == State::kBlockedCollective) {
    ranks_[global_rank].state = State::kRunning;
  }
}

void MatchScheduler::check_victim(int global_rank) const {
  if (victim_ == global_rank) throw rt::DeadlockDetected(deadlock_msg_);
}

void MatchScheduler::mark_done(int global_rank) {
  ranks_[global_rank].state = State::kDone;
}

std::vector<MatchRecord> MatchScheduler::take_trace() {
  return std::move(trace_);
}

bool MatchScheduler::diverged() const { return diverged_; }

bool MatchScheduler::resolve_stuck() {
  if (victim_ >= 0 || world_.aborted()) return false;
  const int n = static_cast<int>(ranks_.size());
  // Every parked receive was woken by any message matching it, so no rank
  // can make progress under the plan.  Replay divergence: a prescribed
  // source can no longer arrive, but other messages are feasible — drop the
  // prescription and let the receive take the default instead of
  // false-deadlocking.
  for (int r = 0; r < n; ++r) {
    RankState& rs = ranks_[r];
    if (rs.state == State::kBlockedRecv && rs.forced &&
        world_.mailbox(r).has_matching(kAnySource, rs.comm_uid, rs.tag)) {
      rs.forced.reset();
      diverged_ = true;
      divergence_counter().inc();
      world_.unpark(r);
      return true;
    }
  }
  for (const RankState& rs : ranks_) {
    if (rs.state == State::kRunning) return false;
  }
  declare_deadlock();
  return true;
}

void MatchScheduler::declare_deadlock() {
  deadlock_msg_ = describe_deadlock();
  victim_ = -1;
  for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
    if (ranks_[r].state == State::kBlockedRecv) {
      victim_ = r;
      break;
    }
  }
  if (victim_ < 0) {
    for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
      if (ranks_[r].state == State::kBlockedCollective) {
        victim_ = r;
        break;
      }
    }
  }
  deadlock_counter().inc();
  obs::instant(obs::Cat::kMatch, "deadlock", "victim", victim_);
  world_.unpark(victim_);
}

std::string MatchScheduler::describe_deadlock() const {
  const int n = static_cast<int>(ranks_.size());
  std::ostringstream os;
  os << "deadlock:";
  bool first = true;
  for (int r = 0; r < n; ++r) {
    const RankState& rs = ranks_[r];
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
  std::vector<int> succ(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const RankState& rs = ranks_[r];
    if (rs.state == State::kBlockedRecv && rs.src_local != kAnySource &&
        rs.src_global >= 0) {
      succ[r] = rs.src_global;
    }
  }
  for (int start = 0; start < n; ++start) {
    if (succ[start] < 0) continue;
    std::vector<int> pos(static_cast<std::size_t>(n), -1);
    std::vector<int> path;
    int cur = start;
    while (cur >= 0 && cur < n && pos[cur] < 0) {
      pos[cur] = static_cast<int>(path.size());
      path.push_back(cur);
      cur = succ[cur];
    }
    if (cur >= 0 && cur < n && pos[cur] >= 0) {
      os << "; cycle:";
      for (std::size_t i = static_cast<std::size_t>(pos[cur]);
           i < path.size(); ++i) {
        os << ' ' << path[i] << "->";
      }
      os << cur;
      break;
    }
  }
  return os.str();
}

}  // namespace compi::minimpi
