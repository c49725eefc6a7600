#include "minimpi/collective_slot.h"

#include <algorithm>

#include "obs/metrics.h"

namespace compi::minimpi {

std::any CollectiveSlot::wait(World& world, Waiter& me) {
  waiters_.push_back(&me);
  // Leaving early (abort, deadline, deadlock victim) withdraws the waiter,
  // so a later round never writes into a dead frame.
  struct Leave {
    CollectiveSlot& slot;
    Waiter& me;
    ~Leave() {
      if (!me.done) std::erase(slot.waiters_, &me);
    }
  } leave{*this, me};
  world.await_collective(me.global_rank, me.done);
  return std::move(me.result);
}

std::any CollectiveSlot::run(World& world, int local_rank, int global_rank,
                             std::any contribution, const Combine& combine) {
  static obs::Counter& collectives = obs::registry().counter(
      "compi_mpi_collectives_total", "Collective operations entered (per rank)");
  collectives.inc();
  world.check_alive();
  contributions_[local_rank] = std::move(contribution);
  if (++arrived_ < size_) {
    Waiter me{global_rank, {}};
    return wait(world, me);
  }
  std::any result = combine(contributions_);
  for (std::any& c : contributions_) c.reset();
  arrived_ = 0;
  for (Waiter* w : waiters_) {
    w->result = result;
    w->done = true;
    world.unpark(w->global_rank);
  }
  waiters_.clear();
  return result;
}

}  // namespace compi::minimpi
