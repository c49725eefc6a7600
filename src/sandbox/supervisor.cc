#include "sandbox/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>

#include "runtime/coverage_sink.h"
#include "sandbox/wire.h"

#ifdef COMPI_SANDBOX_POSIX
#include <poll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

// ASan reserves terabytes of address space for its shadow; RLIMIT_AS would
// kill every child instantly, so the limit is skipped in sanitized builds.
#if defined(__SANITIZE_ADDRESS__)
#define COMPI_SANDBOX_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COMPI_SANDBOX_ASAN 1
#endif
#endif

namespace compi::sandbox {

rt::Outcome outcome_for_signal(int sig) {
  switch (sig) {
    case SIGSEGV: return rt::Outcome::kSegfault;
#ifdef SIGBUS
    case SIGBUS: return rt::Outcome::kSegfault;
#endif
    case SIGILL: return rt::Outcome::kSegfault;
    case SIGFPE: return rt::Outcome::kFpe;
    case SIGABRT: return rt::Outcome::kAssert;
#ifdef SIGKILL
    case SIGKILL: return rt::Outcome::kTimeout;
#endif
#ifdef SIGXCPU
    case SIGXCPU: return rt::Outcome::kTimeout;
#endif
    default: return rt::Outcome::kMpiError;
  }
}

namespace detail {

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGABRT: return "SIGABRT";
#ifdef SIGBUS
    case SIGBUS: return "SIGBUS";
#endif
#ifdef SIGKILL
    case SIGKILL: return "SIGKILL";
#endif
#ifdef SIGXCPU
    case SIGXCPU: return "SIGXCPU";
#endif
    default: return "signal";
  }
}

std::chrono::milliseconds derive_hang(const SandboxOptions& options,
                                      const minimpi::LaunchSpec& spec) {
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  return options.hang_timeout.count() > 0
             ? options.hang_timeout
             : duration_cast<milliseconds>(spec.timeout) * 2 +
                   milliseconds(2000);
}

/// The mapped outcome lands on the reporting rank, peers get kAborted
/// (mpiexec tears the rest of the job down the same way), and the
/// shared-map coverage harvest is distributed to the per-rank logs named
/// by the sink's rank stamps.  Stamps outside the world (saturated, or
/// from a mis-sized map) fall back to the reporting rank.
minimpi::RunResult synthesize_dead_child(const minimpi::LaunchSpec& spec,
                                         const rt::BranchTable& table,
                                         const unsigned char* map,
                                         std::size_t map_size,
                                         rt::Outcome outcome,
                                         std::string message) {
  minimpi::RunResult run;
  const int nprocs = std::max(spec.nprocs, 1);
  run.focus = spec.focus;
  run.ranks.resize(static_cast<std::size_t>(nprocs));
  const int report =
      spec.focus >= 0 && spec.focus < nprocs ? spec.focus : 0;
  for (int r = 0; r < nprocs; ++r) {
    minimpi::RankResult& rank = run.ranks[static_cast<std::size_t>(r)];
    rank.log.rank = r;
    rank.log.nprocs = nprocs;
    rank.log.heavy = spec.one_way || r == spec.focus;
    if (r == report) {
      rank.outcome = outcome;
      rank.message = message;
    } else {
      rank.outcome = rt::Outcome::kAborted;
      rank.message = "job torn down with its killed sibling";
    }
    rank.log.outcome = rank.outcome;
    rank.log.outcome_message = rank.message;
    rank.log.covered = rt::CoverageBitmap(table.num_branches());
  }
  for (std::size_t i = 0; map != nullptr && i < map_size; ++i) {
    if (map[i] == 0) continue;
    int rank = rt::coverage_sink_rank(map[i]);
    if (rank < 0 || rank >= nprocs) rank = report;
    run.ranks[static_cast<std::size_t>(rank)].log.covered.mark(
        static_cast<sym::BranchId>(i));
  }
  return run;
}

#ifdef COMPI_SANDBOX_POSIX

namespace {

/// Pipe fd the fatal-signal handler writes its kSignal frame to.
volatile int g_signal_fd = -1;

/// Async-signal-safe: one write() of a tiny prebuilt frame, then re-raise
/// with the default disposition so the parent's waitpid sees the real
/// signal.  Races with the final result write are tolerated — the frame is
/// far below PIPE_BUF, and the parent's FrameReader stops at a torn tail.
void fatal_signal_handler(int sig) {
  const int fd = g_signal_fd;
  if (fd >= 0) {
    char frame[16];
    char digits[8];
    int n = 0;
    int v = sig;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v > 0 && n < 8);
    frame[0] = static_cast<char>(n);
    frame[1] = frame[2] = frame[3] = 0;
    frame[4] = static_cast<char>(FrameType::kSignal);
    for (int i = 0; i < n; ++i) frame[5 + i] = digits[n - 1 - i];
    ssize_t ignored = write(fd, frame, static_cast<std::size_t>(5 + n));
    (void)ignored;
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

void install_fatal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = fatal_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    (void)sigaction(sig, &sa, nullptr);
  }
}

}  // namespace

void arm_child(const SandboxOptions& options, int signal_fd,
               unsigned char* map, std::size_t map_size) {
  g_signal_fd = signal_fd;
  install_fatal_handlers();
#ifndef COMPI_SANDBOX_ASAN
  if (options.child_mem_mb > 0) {
    struct rlimit mem {};
    mem.rlim_cur = mem.rlim_max =
        static_cast<rlim_t>(options.child_mem_mb) * 1024 * 1024;
    (void)setrlimit(RLIMIT_AS, &mem);
  }
#else
  (void)options;
#endif
  rt::install_coverage_sink(map, map_size);
}

void fence_cpu(const SandboxOptions& options, std::chrono::milliseconds hang) {
  // CPU backstop: one thread busy up to the hang deadline (every rank is a
  // fiber on the launching thread) never trips it, but a runaway child
  // dies even if the parent's wall-clock watchdog is starved.  The limit
  // counts the process's whole life, so a long-lived executor moves it to
  // the CPU it has used so far plus one run's budget before every run.
  // RLIMIT_CPU has whole-second resolution; rounding `used` up grants at
  // least the full budget.  Only the soft limit moves: an unprivileged
  // process can never raise a hard limit again once it lowered it.
  long long budget_s = options.child_cpu_s;
  if (budget_s <= 0) budget_s = hang.count() / 1000 + 2;
  struct rusage usage {};
  (void)getrusage(RUSAGE_SELF, &usage);
  const long long used_us =
      (static_cast<long long>(usage.ru_utime.tv_sec) +
       usage.ru_stime.tv_sec) * 1'000'000 +
      usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
  struct rlimit cpu {};
  if (getrlimit(RLIMIT_CPU, &cpu) != 0) return;
  rlim_t soft = static_cast<rlim_t>((used_us + 999'999) / 1'000'000 + budget_s);
  if (cpu.rlim_max != RLIM_INFINITY) soft = std::min(soft, cpu.rlim_max);
  cpu.rlim_cur = soft;
  (void)setrlimit(RLIMIT_CPU, &cpu);
}

bool launch_frames(const minimpi::LaunchSpec& spec,
                   const rt::BranchTable& table, std::string& out) {
  const std::size_t known =
      spec.registry != nullptr ? spec.registry->size() : 0;
  std::optional<minimpi::RunResult> run;
  std::string error;
  try {
    run = minimpi::launch(spec, table);
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown launcher failure";
  }
  // New input variables were interned into THIS process's registry; ship
  // them back, ahead of the result that mentions them, or the parent's
  // planner dereferences unknown variable ids on the next iteration.
  if (spec.registry != nullptr && spec.registry->size() > known) {
    encode_registry(*spec.registry, known, out);
  }
  if (!run) {
    append_frame(out, FrameType::kError, error);
    return false;
  }
  encode_run_result(*run, out);
  return run->job_outcome() == rt::Outcome::kOk;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent is gone; nothing left to report to
    }
    off += static_cast<std::size_t>(n);
  }
}

[[noreturn]] void child_main(const minimpi::LaunchSpec& spec,
                             const rt::BranchTable& table,
                             const SandboxOptions& options,
                             std::chrono::milliseconds hang, int read_fd,
                             int write_fd, unsigned char* map,
                             std::size_t map_size) {
  close(read_fd);
  arm_child(options, write_fd, map, map_size);
  fence_cpu(options, hang);
  std::string out;
  (void)launch_frames(spec, table, out);
  write_all(write_fd, out);
  _exit(0);
}

minimpi::RunResult interpret_child_exit(
    const minimpi::LaunchSpec& spec, const rt::BranchTable& table,
    std::vector<Frame>& frames, std::size_t stream_bytes,
    const unsigned char* map, std::size_t map_size, bool timed_out,
    int status, double wall, std::chrono::milliseconds hang,
    SandboxStats& st) {
  std::optional<minimpi::RunResult> decoded;
  std::optional<int> signal_frame;
  std::optional<std::string> error_frame;
  for (Frame& f : frames) {
    switch (f.type) {
      case FrameType::kResult: {
        // The run's kRegistry frame came first, so the registry knows
        // every variable a well-formed result mentions.
        minimpi::RunResult run;
        if (decode_run_result(
                f.payload,
                spec.registry != nullptr ? spec.registry->size() : 0, run)) {
          decoded = std::move(run);
        }
        break;
      }
      case FrameType::kError:
        error_frame = std::move(f.payload);
        break;
      case FrameType::kSignal: {
        int sig = 0;
        for (char c : f.payload) {
          if (c < '0' || c > '9') break;
          sig = sig * 10 + (c - '0');
        }
        if (sig > 0) signal_frame = sig;
        break;
      }
      case FrameType::kRegistry:
        if (spec.registry != nullptr) {
          (void)apply_registry(f.payload, *spec.registry);
        }
        break;
      default:
        break;  // server-side frames never appear on a result pipe
    }
  }
  st.harvest_bytes = stream_bytes;
  std::vector<sym::BranchId> harvested_ids;
  for (std::size_t i = 0; map != nullptr && i < map_size; ++i) {
    if (map[i] != 0) harvested_ids.push_back(static_cast<sym::BranchId>(i));
  }
  const std::size_t harvested_branches = harvested_ids.size();

  minimpi::RunResult result;
  if (timed_out) {
    st.hang_kill = true;
    st.harvest_bytes += harvested_branches;
    st.harvested = std::move(harvested_ids);
    result = synthesize_dead_child(
        spec, table, map, map_size, rt::Outcome::kTimeout,
        "sandboxed child exceeded the hang timeout; killed by the "
        "supervisor after " +
            std::to_string(hang.count()) + " ms");
    result.wall_seconds = wall;
  } else if (WIFSIGNALED(status) || signal_frame.has_value()) {
    const int sig = signal_frame.value_or(WIFSIGNALED(status)
                                              ? WTERMSIG(status)
                                              : 0);
    st.signal_kill = true;
    st.term_signal = sig;
    st.harvest_bytes += harvested_branches;
    const std::string message = std::string("child killed by ") +
                                signal_name(sig) + " (real signal " +
                                std::to_string(sig) + ")";
    const rt::Outcome outcome = outcome_for_signal(sig);
    if (decoded.has_value()) {
      // The launcher finished (full result on the wire) but the child then
      // died tearing down — keep the complete logs, flag the outcome.
      result = std::move(*decoded);
      const std::size_t report = static_cast<std::size_t>(
          result.focus >= 0 &&
                  static_cast<std::size_t>(result.focus) < result.ranks.size()
              ? result.focus
              : 0);
      result.ranks[report].outcome = outcome;
      result.ranks[report].message = message;
      result.ranks[report].log.outcome = outcome;
      result.ranks[report].log.outcome_message = message;
    } else {
      st.harvested = std::move(harvested_ids);
      result = synthesize_dead_child(spec, table, map, map_size, outcome,
                                     message);
      result.wall_seconds = wall;
    }
  } else if (decoded.has_value()) {
    result = std::move(*decoded);
  } else if (error_frame.has_value()) {
    st.harvest_bytes += harvested_branches;
    st.harvested = std::move(harvested_ids);
    result = synthesize_dead_child(
        spec, table, map, map_size, rt::Outcome::kMpiError,
        "sandboxed launcher failed: " + *error_frame);
    result.wall_seconds = wall;
  } else {
    st.harvest_bytes += harvested_branches;
    st.harvested = std::move(harvested_ids);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result = synthesize_dead_child(
        spec, table, map, map_size, rt::Outcome::kMpiError,
        "sandboxed child exited with status " + std::to_string(code) +
            " without a result");
    result.wall_seconds = wall;
  }
  return result;
}

#endif  // COMPI_SANDBOX_POSIX

}  // namespace detail

bool sandbox_supported() {
#ifdef COMPI_SANDBOX_POSIX
  return true;
#else
  return false;
#endif
}

minimpi::RunResult run_sandboxed(const minimpi::LaunchSpec& spec,
                                 const rt::BranchTable& table,
                                 const SandboxOptions& options,
                                 SandboxStats* stats) {
  SandboxStats local;
  SandboxStats& st = stats != nullptr ? *stats : local;
  st = SandboxStats{};
#ifndef COMPI_SANDBOX_POSIX
  (void)options;
  return minimpi::launch(spec, table);
#else
  using std::chrono::duration;
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;

  const milliseconds hang = detail::derive_hang(options, spec);

  const std::size_t map_size = table.num_branches();
  const std::size_t map_bytes = std::max<std::size_t>(map_size, 1);
  void* map = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return minimpi::launch(spec, table);
  int fds[2];
  if (pipe(fds) != 0) {
    munmap(map, map_bytes);
    return minimpi::launch(spec, table);
  }

  // Don't let buffered stdio reach the pipe era twice: the child inherits
  // the buffers and _exit()s without flushing, but targets may print.
  std::fflush(stdout);
  std::fflush(stderr);

  const auto t0 = steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    munmap(map, map_bytes);
    return minimpi::launch(spec, table);
  }
  if (pid == 0) {
    detail::child_main(spec, table, options, hang, fds[0], fds[1],
                       static_cast<unsigned char*>(map), map_size);
  }

  // ---- parent: stream frames until EOF, enforcing the hang deadline ----
  close(fds[1]);
  st.forked = true;
  FrameReader reader;
  bool timed_out = false;
  const auto deadline = t0 + hang;
  char buf[65536];
  for (;;) {
    int wait_ms = 100;  // post-kill: just drain the pipe to EOF
    if (!timed_out) {
      const auto remaining =
          duration_cast<milliseconds>(deadline - steady_clock::now()).count();
      if (remaining <= 0) {
        (void)kill(pid, SIGKILL);
        timed_out = true;
        continue;
      }
      wait_ms = static_cast<int>(std::min<long long>(remaining, 1000));
    }
    struct pollfd pfd {};
    pfd.fd = fds[0];
    pfd.events = POLLIN;
    const int rv = poll(&pfd, 1, wait_ms);
    if (rv < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rv == 0) {
      if (timed_out) break;  // already killed; nothing more is coming
      continue;              // quiet pipe: loop re-checks the deadline
    }
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the child is gone
    reader.feed(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);

  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const double wall = duration<double>(steady_clock::now() - t0).count();

  std::vector<Frame> frames;
  while (std::optional<Frame> f = reader.next()) frames.push_back(std::move(*f));
  minimpi::RunResult result = detail::interpret_child_exit(
      spec, table, frames, reader.bytes_fed(),
      static_cast<const unsigned char*>(map), map_size, timed_out, status,
      wall, hang, st);
  munmap(map, map_bytes);
  return result;
#endif  // COMPI_SANDBOX_POSIX
}

}  // namespace compi::sandbox
