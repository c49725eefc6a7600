// Cooperative fibers: every rank of a MiniMPI job runs on the thread that
// called launch(), switched at user level (SMPI's single-process rank
// model).
//
// A FiberScheduler owns one fiber per rank and a FIFO run queue, seeded in
// rank order.  A fiber runs until it parks (a blocking MPI point: mailbox
// receive, collective rendezvous, chaos delay or stall) or finishes, and
// then switches straight to the head of the run queue; parked fibers
// become runnable again only through unpark().  Because nothing
// else runs while a fiber runs, no MiniMPI state needs a lock, and "no
// fiber can ever run again" is an exact observation: the run queue is
// empty, fibers are unfinished and no timed sleeper wakes before the
// horizon.  run() hands that state to its `stuck` callback.
//
// Stacks are as large as a default thread stack (RLIMIT_STACK, 8 MiB when
// unlimited), mapped MAP_NORESERVE with a PROT_NONE guard page below, and
// pooled per OS thread so later launches on the same thread map nothing.
// Switches carry the AddressSanitizer and ThreadSanitizer fiber
// annotations, and refuse to happen while an exception is in flight or
// being handled: the C++ exception globals are per thread, not per fiber.
#pragma once

#include <ucontext.h>

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

namespace compi::minimpi {

class FiberScheduler {
 public:
  using Clock = std::chrono::steady_clock;
  using Body = std::function<void(int)>;

  /// Prepares `n` fibers; fiber i will run `body(i)`.  `body` must not
  /// throw and must outlive run().
  FiberScheduler(int n, const Body& body);
  ~FiberScheduler();
  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Runs every fiber to completion on the calling thread.  Whenever no
  /// fiber is runnable and no timed sleeper wakes before `horizon`, calls
  /// `stuck()`, which must unpark at least one fiber.  When only timed
  /// sleepers remain, the thread sleeps until the earliest wakes.
  void run(Clock::time_point horizon, const std::function<void()>& stuck);

  /// Index of the running fiber, or -1 on the scheduler's own context.
  [[nodiscard]] int self() const { return current_; }

  /// Suspends the running fiber until unpark(self()).
  void park();
  /// Suspends the running fiber until `wake` or an earlier unpark().
  void park_until(Clock::time_point wake);
  /// Makes a parked fiber runnable (appended to the run queue); a no-op for
  /// fibers that are running, runnable or finished.
  void unpark(int id);
  /// Unparks every parked fiber, in index order.
  void unpark_all();

  struct Stack;  // a pooled, guard-paged fiber stack

 private:
  enum class State : unsigned char { kRunnable, kRunning, kParked, kDone };
  struct Fiber;

  static void entry();
  /// Pops the run queue's head and marks it running (nullptr when empty).
  Fiber* next_runnable();
  /// Stops the running fiber and hands the thread to the next runnable
  /// fiber, or back to run() when there is none.
  void leave(bool finished);
  /// Switches from `from` to `to` (nullptr = run()'s own context).
  void jump(Fiber* from, Fiber* to, bool finished);
  void finish_switch(void* fake_stack);
  void suspend(Clock::time_point wake);

  const Body& body_;
  std::vector<Fiber> fibers_;
  std::deque<int> runq_;
  int current_ = -1;
  int done_ = 0;
  int timed_ = 0;  // parked fibers with a wake time
  ucontext_t home_{};
  int* home_track_slot_ = nullptr;
  bool from_home_ = false;  // the last switch left run()'s context
  // Sanitizer bookkeeping for the scheduler's own (home) context.
  void* home_fake_stack_ = nullptr;
  const void* home_stack_bottom_ = nullptr;
  std::size_t home_stack_size_ = 0;
  void* home_tsan_fiber_ = nullptr;
};

/// Fiber stacks this thread's pool has mapped so far (all launches).
[[nodiscard]] std::size_t fiber_stacks_mapped();

}  // namespace compi::minimpi
