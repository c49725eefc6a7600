#include "minimpi/world.h"

#include <algorithm>
#include <utility>

#include "minimpi/fiber.h"
#include "minimpi/match_scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

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
}  // namespace

World::World(int size, Time budget, const FaultPlan& chaos)
    : size_(size),
      mailboxes_(static_cast<std::size_t>(size)),
      deadline_(budget) {
  if (chaos.enabled()) chaos_ = std::make_unique<ChaosEngine>(chaos, size);
}

World::~World() = default;

void World::enable_match_scheduler(MatchPlan plan) {
  scheduler_ = std::make_unique<MatchScheduler>(*this, std::move(plan));
}

Message World::recv_message(int dest_global, int src_local, int src_global,
                            std::int64_t comm_uid, int tag,
                            int reserved_seq) {
  if (scheduler_) {
    return scheduler_->recv(dest_global, src_local, src_global, comm_uid,
                            tag, reserved_seq);
  }
  return mailbox(dest_global).pop_matching(*this, src_local, comm_uid, tag);
}

std::optional<Message> World::post_irecv(int dest_global, int src_local,
                                         std::int64_t comm_uid, int tag,
                                         int& reserved_seq) {
  reserved_seq = -1;
  if (scheduler_) {
    return scheduler_->post_irecv(dest_global, src_local, comm_uid, tag,
                                  reserved_seq);
  }
  return mailbox(dest_global).try_pop(src_local, comm_uid, tag);
}

void World::post(int src_global, int dest_global, Message msg) {
  if (chaos_) {
    if (chaos_->should_drop(src_global)) {
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

void World::run(FiberScheduler& fibers, const std::function<void()>& stuck) {
  fibers_ = &fibers;
  fibers.run(now_, deadline_, stuck);
  fibers_ = nullptr;
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

Message Mailbox::pop_matching(World& world, int src, std::int64_t comm_uid,
                              int tag) {
  for (;;) {
    world.check_alive();
    if (auto msg = try_pop(src, comm_uid, tag)) return std::move(*msg);
    await(world, src, comm_uid, tag);
  }
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
  std::vector<int> out;
  for (const Message& m : queue_) {
    if (matches(m, kAnySource, comm_uid, tag)) out.push_back(m.src);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::deque<Message> Mailbox::drain() {
  return std::exchange(queue_, {});
}

}  // namespace compi::minimpi
