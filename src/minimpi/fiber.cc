#include "minimpi/fiber.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/trace.h"

#if defined(__SANITIZE_ADDRESS__)
#define COMPI_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COMPI_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define COMPI_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COMPI_FIBER_TSAN 1
#endif
#endif

#ifdef COMPI_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef COMPI_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace compi::minimpi {

namespace {

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "minimpi fiber: %s\n", what);
  std::abort();
}

std::size_t page_size() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// The size of a default thread stack: RLIMIT_STACK's soft limit, 8 MiB
/// when unlimited or unreadable, rounded up to whole pages.
std::size_t default_stack_size() {
  static const std::size_t size = [] {
    std::size_t bytes = 8u << 20;
    rlimit lim{};
    if (getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY &&
        lim.rlim_cur > 0) {
      bytes = static_cast<std::size_t>(lim.rlim_cur);
    }
    const std::size_t page = page_size();
    return (bytes + page - 1) / page * page;
  }();
  return size;
}

}  // namespace

/// A guard-paged stack and the context that runs on it: [lo, lo + size) is
/// usable, the page below `lo` is PROT_NONE.  The context stays initialized
/// across launches, so only a stack's first use pays for getcontext.
struct FiberScheduler::Stack {
  char* lo = nullptr;
  std::size_t size = 0;
  ucontext_t ctx{};

  Stack() {
    const std::size_t guard = page_size();
    size = default_stack_size();
    void* map = mmap(nullptr, size + guard, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED) fatal("cannot map a fiber stack");
    if (mprotect(map, guard, PROT_NONE) != 0) fatal("cannot guard a fiber stack");
    lo = static_cast<char*>(map) + guard;
    if (getcontext(&ctx) != 0) fatal("getcontext failed");
  }
  ~Stack() { munmap(lo - page_size(), size + page_size()); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

namespace {

/// Per-thread pool: stacks are reused across launches on the same thread
/// and unmapped when the thread exits.
struct StackPool {
  std::vector<std::unique_ptr<FiberScheduler::Stack>> free;
  std::size_t mapped = 0;

  std::unique_ptr<FiberScheduler::Stack> take() {
    if (free.empty()) {
      ++mapped;
      return std::make_unique<FiberScheduler::Stack>();
    }
    std::unique_ptr<FiberScheduler::Stack> s = std::move(free.back());
    free.pop_back();
    return s;
  }
};

thread_local StackPool t_pool;
/// The scheduler whose fiber (or home context) is running on this thread.
thread_local FiberScheduler* t_active = nullptr;

/// No switch may leave or enter a fiber while an exception is being thrown
/// or handled: the exception globals would be shared between fibers.
void check_switchable() {
  if (std::uncaught_exceptions() != 0 || std::current_exception()) {
    fatal("context switch with an exception in flight");
  }
}

}  // namespace

struct FiberScheduler::Fiber {
  std::unique_ptr<Stack> stack;
  State state = State::kRunnable;
  Clock::time_point wake = Clock::time_point::max();
  int track = 0;  // this fiber's trace track (fiber-local, see obs/trace.h)
  void* fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

std::size_t fiber_stacks_mapped() { return t_pool.mapped; }

FiberScheduler::FiberScheduler(int n, const Body& body)
    : body_(body), fibers_(static_cast<std::size_t>(n)) {}

FiberScheduler::~FiberScheduler() {
  for (Fiber& f : fibers_) {
    if (f.stack != nullptr) t_pool.free.push_back(std::move(f.stack));
#ifdef COMPI_FIBER_TSAN
    if (f.tsan_fiber != nullptr) __tsan_destroy_fiber(f.tsan_fiber);
#endif
  }
}

void FiberScheduler::entry() {
  FiberScheduler* s = t_active;
#ifdef COMPI_FIBER_ASAN
  s->finish_switch(nullptr);
#endif
  const int id = s->current_;
  s->body_(id);
  s->fibers_[static_cast<std::size_t>(id)].state = State::kDone;
  ++s->done_;
  s->leave(/*finished=*/true);
  fatal("finished fiber resumed");
}

void FiberScheduler::run(Clock::time_point horizon,
                         const std::function<void()>& stuck) {
  FiberScheduler* const outer = t_active;
  t_active = this;
#ifdef COMPI_FIBER_TSAN
  home_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  home_track_slot_ = obs::bind_track_slot(nullptr);
  obs::bind_track_slot(home_track_slot_);
  const int track = obs::thread_track();
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    Fiber& f = fibers_[i];
    f.stack = t_pool.take();
    f.track = track;
#ifdef COMPI_FIBER_ASAN
    // The stack's previous fiber left through its top frames (entry, leave,
    // jump) instead of returning, so their redzones are still poisoned.
    constexpr std::size_t kTopFrames = 64 << 10;
    __asan_unpoison_memory_region(f.stack->lo + f.stack->size - kTopFrames,
                                  kTopFrames);
#endif
    ucontext_t& ctx = f.stack->ctx;
    ctx.uc_stack.ss_sp = f.stack->lo;
    ctx.uc_stack.ss_size = f.stack->size;
    ctx.uc_link = nullptr;
    makecontext(&ctx, &FiberScheduler::entry, 0);
#ifdef COMPI_FIBER_TSAN
    f.tsan_fiber = __tsan_create_fiber(0);
#endif
    runq_.push_back(static_cast<int>(i));
  }

  const int n = static_cast<int>(fibers_.size());
  while (done_ < n) {
    if (!runq_.empty()) {
      // Fibers hand over to each other; control comes back here only when
      // the run queue is empty.
      jump(nullptr, next_runnable(), /*finished=*/false);
      continue;
    }
    // Timed sleepers that wake before the horizon: let the thread sleep.
    Clock::time_point earliest = Clock::time_point::max();
    if (timed_ > 0) {
      for (const Fiber& f : fibers_) {
        if (f.state == State::kParked && f.wake < earliest) earliest = f.wake;
      }
    }
    if (earliest < horizon) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          earliest.time_since_epoch())
                          .count();
      const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                        static_cast<long>(ns % 1'000'000'000)};
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
      }
      const Clock::time_point now = Clock::now();
      for (int id = 0; id < n; ++id) {
        const Fiber& f = fibers_[static_cast<std::size_t>(id)];
        if (f.state == State::kParked && f.wake <= now) unpark(id);
      }
      continue;
    }
    stuck();
    if (runq_.empty()) fatal("stuck handler made no fiber runnable");
  }
  t_active = outer;
}

FiberScheduler::Fiber* FiberScheduler::next_runnable() {
  if (runq_.empty()) return nullptr;
  Fiber* next = &fibers_[static_cast<std::size_t>(runq_.front())];
  runq_.pop_front();
  next->state = State::kRunning;
  return next;
}

void FiberScheduler::leave(bool finished) {
  jump(&fibers_[static_cast<std::size_t>(current_)], next_runnable(),
       finished);
}

void FiberScheduler::jump(Fiber* from, Fiber* to, bool finished) {
  check_switchable();
  obs::bind_track_slot(to != nullptr ? &to->track : home_track_slot_);
  current_ = to != nullptr ? static_cast<int>(to - fibers_.data()) : -1;
  from_home_ = from == nullptr;
#ifdef COMPI_FIBER_ASAN
  // A finished fiber passes no save slot, so ASan frees its fake stack.
  void** save = from != nullptr ? &from->fake_stack : &home_fake_stack_;
  __sanitizer_start_switch_fiber(
      finished ? nullptr : save,
      to != nullptr ? to->stack->lo : home_stack_bottom_,
      to != nullptr ? to->stack->size : home_stack_size_);
#else
  (void)finished;
#endif
#ifdef COMPI_FIBER_TSAN
  __tsan_switch_to_fiber(to != nullptr ? to->tsan_fiber : home_tsan_fiber_, 0);
#endif
  swapcontext(from != nullptr ? &from->stack->ctx : &home_,
              to != nullptr ? &to->stack->ctx : &home_);
#ifdef COMPI_FIBER_ASAN
  finish_switch(from != nullptr ? from->fake_stack : home_fake_stack_);
#endif
}

#ifdef COMPI_FIBER_ASAN
void FiberScheduler::finish_switch(void* fake_stack) {
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  // The home stack's bounds are learned from the switches that leave it.
  if (from_home_) {
    home_stack_bottom_ = bottom;
    home_stack_size_ = size;
  }
}
#endif

void FiberScheduler::suspend(Clock::time_point wake) {
  if (current_ < 0) fatal("park outside a fiber");
  Fiber& f = fibers_[static_cast<std::size_t>(current_)];
  f.state = State::kParked;
  f.wake = wake;
  if (wake != Clock::time_point::max()) ++timed_;
  leave(/*finished=*/false);
}

void FiberScheduler::park() { suspend(Clock::time_point::max()); }

void FiberScheduler::park_until(Clock::time_point wake) { suspend(wake); }

void FiberScheduler::unpark(int id) {
  Fiber& f = fibers_[static_cast<std::size_t>(id)];
  if (f.state != State::kParked) return;
  if (f.wake != Clock::time_point::max()) {
    --timed_;
    f.wake = Clock::time_point::max();
  }
  f.state = State::kRunnable;
  runq_.push_back(id);
}

void FiberScheduler::unpark_all() {
  for (int id = 0; id < static_cast<int>(fibers_.size()); ++id) unpark(id);
}

}  // namespace compi::minimpi
