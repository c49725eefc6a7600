// A reusable rendezvous for collective operations on one communicator.
//
// Every collective in MiniMPI follows the same shape: all members deposit a
// contribution, the last arriver combines them, everyone retrieves the
// result.  Because MPI requires all members to call collectives in the same
// order, a single count-based slot per communicator is sufficient.  Early
// arrivers park; the last arriver hands each of them a copy of the result
// and unparks them, so the slot is free for the next round at once.
#pragma once

#include <any>
#include <functional>
#include <vector>

#include "minimpi/world.h"

namespace compi::minimpi {

class CollectiveSlot {
 public:
  explicit CollectiveSlot(int size) : size_(size), contributions_(size) {}

  using Combine = std::function<std::any(std::vector<std::any>&)>;

  /// Deposits `contribution` for `local_rank`; the last arriving member
  /// runs `combine` over all contributions (indexed by local rank); every
  /// member receives a copy of the combined std::any.  Raises JobAborted on
  /// job abort / deadline.  `global_rank` identifies the caller to the
  /// fiber scheduler and to World's blocked-state bookkeeping (exact
  /// deadlock detection); a waiter elected deadlock victim raises
  /// DeadlockDetected.
  std::any run(World& world, int local_rank, int global_rank,
               std::any contribution, const Combine& combine);

 private:
  /// An early arriver, parked until the last arriver fills `result`.
  struct Waiter {
    int global_rank;
    std::any result;
    bool done = false;
  };

  std::any wait(World& world, Waiter& me);

  int size_;
  std::vector<std::any> contributions_;
  std::vector<Waiter*> waiters_;
  int arrived_ = 0;
};

}  // namespace compi::minimpi
