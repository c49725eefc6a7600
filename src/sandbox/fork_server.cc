#include "sandbox/fork_server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#ifdef COMPI_SANDBOX_POSIX
#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#endif

namespace compi::sandbox {

minimpi::RunResult ForkServer::cold_fork(const minimpi::LaunchSpec& spec,
                                         SandboxStats* stats) {
  ++stats_.cold_forks;
  return run_sandboxed(spec, table_, options_.sandbox, stats);
}

#ifndef COMPI_SANDBOX_POSIX

ForkServer::ForkServer(const rt::BranchTable& table, ForkServerOptions options)
    : table_(table), options_(options) {
  stats_.degraded = true;
}
ForkServer::~ForkServer() = default;
minimpi::RunResult ForkServer::run(const minimpi::LaunchSpec& spec,
                                   SandboxStats* stats, bool* warm) {
  if (warm != nullptr) *warm = false;
  return cold_fork(spec, stats);
}
bool ForkServer::start(const minimpi::LaunchSpec&) { return false; }
void ForkServer::note_server_death() {}
void ForkServer::shutdown() {}
void ForkServer::executor_ended() {}

#else  // COMPI_SANDBOX_POSIX

namespace {

using std::chrono::duration;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Extra wall-clock the parent grants the server to report "reaped" after
/// the executor's own hang deadline passed (the server's waitpid returns
/// promptly once the parent SIGKILLs the executor).
constexpr milliseconds kReapGrace{5000};

/// How long shutdown() lets an idle executor and its server stop on
/// their own before it SIGKILLs them.
constexpr milliseconds kStopGrace{1000};

/// Executor exit codes.  kExecutorStop (ctl closed or corrupt) stops the
/// server too; any other end — kExecutorRecycle after a faulting run, a
/// real signal, a hang kill — makes the server fork a replacement.
constexpr int kExecutorStop = 0;
constexpr int kExecutorRecycle = 3;

/// The server writes to st/res pipes whose read ends live in the parent;
/// if the parent dies first those writes must error, not kill the server
/// with SIGPIPE.  Installed once, only if the process still has the
/// default disposition (never clobber a user handler).
void ignore_sigpipe_once() {
  static const bool done = [] {
    struct sigaction cur {};
    if (sigaction(SIGPIPE, nullptr, &cur) == 0 && cur.sa_handler == SIG_DFL) {
      struct sigaction ign {};
      ign.sa_handler = SIG_IGN;
      sigemptyset(&ign.sa_mask);
      (void)sigaction(SIGPIPE, &ign, nullptr);
    }
    return true;
  }();
  (void)done;
}

void send_status(int fd, const std::string& text) {
  std::string out;
  append_frame(out, FrameType::kStatus, text);
  detail::write_all(fd, out);
}

/// The persistent executor: applies registry suffixes and runs each kSpawn
/// in-process, answering on res with R/E, the interned-variable suffix and
/// kDone.  Exits after a faulting run (recycle) or when ctl closes (stop).
[[noreturn]] void executor_main(const minimpi::LaunchSpec& prototype,
                                const rt::BranchTable& table,
                                const SandboxOptions& sandbox, pid_t server,
                                int ctl_rd, int res_wr, unsigned char* map,
                                std::size_t map_size) {
#ifdef __linux__
  (void)prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != server) _exit(kExecutorStop);  // the server died already
#else
  (void)server;
#endif
  detail::arm_child(sandbox, res_wr, map, map_size);
  rt::VarRegistry registry;
  minimpi::LaunchSpec base = prototype;
  base.registry = &registry;

  FrameReader ctl;
  bool poisoned = false;  // a registry suffix failed to apply
  std::string out;        // one run's answer; its capacity is reused
  char buf[65536];
  for (;;) {
    const ssize_t n = read(ctl_rd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) _exit(kExecutorStop);  // parent closed ctl: campaign over
    ctl.feed(buf, static_cast<std::size_t>(n));
    while (std::optional<Frame> f = ctl.next()) {
      if (f->type == FrameType::kRegistry) {
        poisoned = poisoned || !apply_registry(f->payload, registry);
        continue;
      }
      if (f->type != FrameType::kSpawn) continue;
      out.clear();
      minimpi::LaunchSpec spec = base;
      solver::Assignment inputs;
      milliseconds hang{0};
      if (poisoned || !decode_spawn_request(f->payload, spec, inputs, hang)) {
        append_frame(out, FrameType::kDone,
                     poisoned ? "reject registry" : "reject decode");
        detail::write_all(res_wr, out);
        _exit(kExecutorRecycle);
      }
      map[map_size] = 1;  // started: this executor took the spawn
      detail::fence_cpu(sandbox, hang);
      const bool clean = detail::launch_frames(spec, table, out);
      append_frame(out, FrameType::kDone, clean ? "next" : "exit");
      detail::write_all(res_wr, out);
      if (!clean) _exit(kExecutorRecycle);
    }
    if (ctl.corrupt()) _exit(kExecutorStop);  // let the parent restart us
  }
}

/// The long-lived server child: forks the executor, reports its lifecycle
/// over st, answers each of the parent's ping bytes with "alive", and
/// forks a replacement whenever an executor ends short of a stop.
[[noreturn]] void server_main(const minimpi::LaunchSpec& prototype,
                              const rt::BranchTable& table,
                              const SandboxOptions& sandbox, int ctl_rd,
                              int st_fd, int res_wr, unsigned char* map,
                              std::size_t map_size) {
  std::string hello;
  append_frame(hello, FrameType::kHello,
               "compi-fork-server 2 " + std::to_string(getpid()));
  detail::write_all(st_fd, hello);

  const pid_t self = getpid();
  for (;;) {
    // The executor holds the only write end of `life`: its death, however
    // it comes, hangs the pipe up.
    int life[2];
    if (pipe(life) != 0) _exit(1);  // the parent sees a dead server
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) _exit(1);
    if (pid == 0) {
      close(st_fd);
      close(life[0]);
      executor_main(prototype, table, sandbox, self, ctl_rd, res_wr, map,
                    map_size);
    }
    close(life[1]);
    send_status(st_fd, "spawned " + std::to_string(pid));
    for (;;) {
      struct pollfd pfds[2] = {};
      pfds[0].fd = st_fd;
      pfds[0].events = POLLIN;
      pfds[1].fd = life[0];
      pfds[1].events = POLLIN;
      if (poll(pfds, 2, -1) < 0) {
        if (errno == EINTR) continue;
        _exit(1);
      }
      if (pfds[0].revents != 0) {
        char pings[256];
        const ssize_t n = read(st_fd, pings, sizeof(pings));
        if (n == 0 || (n < 0 && errno != EINTR)) _exit(0);  // parent gone
        std::string out;
        for (ssize_t i = 0; i < n; ++i) {
          append_frame(out, FrameType::kStatus, "alive");
        }
        detail::write_all(st_fd, out);
      }
      if (pfds[1].revents != 0) break;  // the executor ended
    }
    close(life[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    send_status(st_fd, "reaped " + std::to_string(status));
    if (WIFEXITED(status) && WEXITSTATUS(status) == kExecutorStop) break;
  }
  _exit(0);
}

/// Parses the integer payload tail of "spawned <pid>" / "reaped <status>".
std::optional<long> status_arg(std::string_view payload,
                               std::string_view verb) {
  if (payload.size() <= verb.size() + 1 ||
      payload.substr(0, verb.size()) != verb ||
      payload[verb.size()] != ' ') {
    return std::nullopt;
  }
  long value = 0;
  bool neg = false;
  std::size_t i = verb.size() + 1;
  if (i < payload.size() && payload[i] == '-') {
    neg = true;
    ++i;
  }
  if (i >= payload.size()) return std::nullopt;
  for (; i < payload.size(); ++i) {
    const char c = payload[i];
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
  }
  return neg ? -value : value;
}

}  // namespace

ForkServer::ForkServer(const rt::BranchTable& table, ForkServerOptions options)
    : table_(table), options_(options) {}

ForkServer::~ForkServer() { shutdown(); }

bool ForkServer::start(const minimpi::LaunchSpec& prototype) {
  ignore_sigpipe_once();
  map_size_ = table_.num_branches();
  void* map = mmap(nullptr, map_size_ + 1, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return false;
  int ctl[2], st[2], res[2];
  if (pipe(ctl) != 0) {
    munmap(map, map_size_ + 1);
    return false;
  }
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, st) != 0) {
    close(ctl[0]);
    close(ctl[1]);
    munmap(map, map_size_ + 1);
    return false;
  }
  if (pipe(res) != 0) {
    close(ctl[0]);
    close(ctl[1]);
    close(st[0]);
    close(st[1]);
    munmap(map, map_size_ + 1);
    return false;
  }

  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    for (int fd : {ctl[0], ctl[1], st[0], st[1], res[0], res[1]}) close(fd);
    munmap(map, map_size_ + 1);
    return false;
  }
  if (pid == 0) {
    close(ctl[1]);
    close(st[0]);
    close(res[0]);
    server_main(prototype, table_, options_.sandbox, ctl[0], st[1], res[1],
                static_cast<unsigned char*>(map), map_size_);
  }
  close(ctl[0]);
  close(st[1]);
  close(res[1]);
  (void)fcntl(res[0], F_SETFL, O_NONBLOCK);

  server_pid_ = pid;
  executor_pid_ = -1;
  retiring_ = false;
  unanswered_pings_ = 0;
  ctl_fd_ = ctl[1];
  st_fd_ = st[0];
  res_fd_ = res[0];
  map_ = static_cast<unsigned char*>(map);
  synced_vars_ = 0;
  st_reader_ = FrameReader{};
  started_ = true;
  return true;
}

void ForkServer::shutdown() {
  if (started_) {
    // Closing ctl stops an idle executor (it exits 0), and the server reaps
    // it and exits in turn, which closes st: the executor's CPU is counted
    // to the server and no orphan is left.  A pair that has not gone by
    // the grace is SIGKILLed, the executor first while its server still
    // holds its pid (it would also die with the server through
    // PR_SET_PDEATHSIG).  Reap the server so no zombie outlives us.
    close(ctl_fd_);
    if (server_pid_ > 0) {
      const auto give_up = steady_clock::now() + kStopGrace;
      bool stopped = false;
      char buf[4096];
      while (!stopped && steady_clock::now() < give_up) {
        struct pollfd pfd {};
        pfd.fd = st_fd_;
        pfd.events = POLLIN;
        if (poll(&pfd, 1, 10) < 0 && errno != EINTR) break;
        // Drop lifecycle frames; EOF means the server is gone.
        ssize_t n = 1;
        while (n > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
          n = recv(st_fd_, buf, sizeof(buf), MSG_DONTWAIT);
          stopped = n == 0;
        }
      }
      if (!stopped) {
        if (executor_pid_ > 0) {
          (void)kill(static_cast<pid_t>(executor_pid_), SIGKILL);
        }
        (void)kill(static_cast<pid_t>(server_pid_), SIGKILL);
      }
      int status = 0;
      while (waitpid(static_cast<pid_t>(server_pid_), &status, 0) < 0 &&
             errno == EINTR) {
      }
    }
    close(st_fd_);
    close(res_fd_);
    ctl_fd_ = st_fd_ = res_fd_ = -1;
    server_pid_ = executor_pid_ = -1;
    started_ = false;
  }
  if (map_ != nullptr) {
    munmap(map_, map_size_ + 1);
    map_ = nullptr;
  }
}

void ForkServer::note_server_death() {
  shutdown();
  ++stats_.restarts;
  if (stats_.restarts > static_cast<std::uint64_t>(
                            std::max(options_.max_restarts, 0))) {
    stats_.degraded = true;
  }
}

void ForkServer::executor_ended() {
  executor_pid_ = -1;
  synced_vars_ = 0;
}

minimpi::RunResult ForkServer::run(const minimpi::LaunchSpec& spec,
                                   SandboxStats* stats, bool* warm) {
  if (warm != nullptr) *warm = false;
  if (stats_.degraded || (!started_ && !start(spec))) {
    if (!stats_.degraded) note_server_death();
    return cold_fork(spec, stats);
  }
  // A dead server's executor must not take this spawn: check before
  // shipping.  The reaped server's pid is forgotten, not killed again.
  if (waitpid(static_cast<pid_t>(server_pid_), nullptr, WNOHANG) != 0) {
    server_pid_ = -1;
    note_server_death();
    return cold_fork(spec, stats);
  }

  SandboxStats local;
  SandboxStats& st = stats != nullptr ? *stats : local;
  st = SandboxStats{};

  const milliseconds hang = detail::derive_hang(options_.sandbox, spec);
  std::memset(map_, 0, map_size_ + 1);  // coverage and the started flag

  // Ship the registry suffix the executor hasn't seen, then the spawn.
  std::string out;
  if (spec.registry != nullptr && spec.registry->size() > synced_vars_) {
    encode_registry(*spec.registry, synced_vars_, out);
  }
  encode_spawn_request(spec, hang, out);

  const auto t0 = steady_clock::now();
  bool write_failed = false;
  {
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = write(ctl_fd_, out.data() + off, out.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        write_failed = true;  // EPIPE: server and executor are gone
        break;
      }
      off += static_cast<std::size_t>(n);
    }
  }
  // Ping the server: a run counts only once the server answered "alive"
  // after it was shipped, so a server killed before this call can never
  // vouch for it, however fast its executor is.
  if (write_failed || write(st_fd_, "p", 1) != 1) {
    note_server_death();
    return cold_fork(spec, stats);
  }
  ++unanswered_pings_;

  // ---- wait for the end of the run, enforcing the hang deadline ----
  FrameReader res_reader;
  std::vector<Frame> frames;
  std::optional<std::string> done;  // the kDone payload
  char buf[65536];
  const auto drain_res = [&] {
    for (;;) {
      const ssize_t n = read(res_fd_, buf, sizeof(buf));
      if (n > 0) {
        res_reader.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN (drained) or EOF/error (nothing more to read)
    }
    while (std::optional<Frame> f = res_reader.next()) {
      if (f->type == FrameType::kDone) {
        done = std::move(f->payload);
      } else {
        frames.push_back(std::move(*f));
      }
    }
  };

  std::optional<long> reaped;
  bool timed_out = false;
  bool server_dead = false;
  const auto deadline = t0 + hang;
  const auto grace_end = deadline + kReapGrace;
  // The run ends at its kDone frame once the server answered "alive" and
  // the executor's "spawned" was read, or at the "reaped" frame of an
  // executor that died running it.  A hang kill waits for "reaped" even if
  // kDone slipped in: the kill decides the run, as for a one-shot child.
  const auto delivered = [&] { return done.has_value() && !timed_out; };
  bool done_reaped = false;  // this run's executor ended after its kDone
  while (!(delivered() && unanswered_pings_ == 0 &&
           (executor_pid_ > 0 || done_reaped)) &&
         !reaped.has_value()) {
    if (waitpid(static_cast<pid_t>(server_pid_), nullptr, WNOHANG) != 0) {
      server_pid_ = -1;
      server_dead = true;
      break;
    }
    const auto now = steady_clock::now();
    if (!timed_out && now >= deadline) {
      if (executor_pid_ > 0) {
        (void)kill(static_cast<pid_t>(executor_pid_), SIGKILL);
      }
      timed_out = true;
    }
    if (now >= grace_end) {
      // The server never reported the reap (wedged or silently dead).
      server_dead = true;
      break;
    }
    struct pollfd pfds[2] = {};
    pfds[0].fd = st_fd_;
    pfds[0].events = POLLIN;
    pfds[1].fd = res_fd_;
    pfds[1].events = POLLIN;
    const int rv = poll(pfds, 2, 100);
    if (rv < 0) {
      if (errno == EINTR) continue;
      server_dead = true;
      break;
    }
    if ((pfds[1].revents & (POLLIN | POLLHUP)) != 0) drain_res();
    if ((pfds[0].revents & (POLLIN | POLLHUP)) != 0) {
      const ssize_t n = read(st_fd_, buf, sizeof(buf));
      if (n <= 0 && !(n < 0 && errno == EINTR)) {
        server_dead = true;
        break;
      }
      if (n > 0) st_reader_.feed(buf, static_cast<std::size_t>(n));
    }
    if (st_reader_.corrupt()) {
      server_dead = true;
      break;
    }
    while (std::optional<Frame> f = st_reader_.next()) {
      if (f->type != FrameType::kStatus) continue;  // tolerate late kHello
      if (f->payload == "alive") {
        if (unanswered_pings_ > 0) --unanswered_pings_;
      } else if (const auto pid = status_arg(f->payload, "spawned")) {
        executor_pid_ = *pid;
        ++stats_.executor_forks;
      } else if (const auto status = status_arg(f->payload, "reaped")) {
        if (retiring_) {
          retiring_ = false;  // the previous run's executor, as announced
        } else if (delivered()) {
          done_reaped = true;  // this run's executor, after its kDone
          executor_ended();    // before its replacement's "spawned"
          break;
        } else {
          reaped = *status;  // the executor running this spawn ended
          executor_ended();
          break;  // later frames belong to its replacement
        }
      }
    }
  }

  if (server_dead) {
    note_server_death();
    // The iteration is NEVER lost: re-run it cold.  Discarding the partial
    // frames is safe because the cold re-run re-interns any new variables
    // identically.
    return cold_fork(spec, stats);
  }
  if (reaped.has_value()) {
    drain_res();  // the executor finished writing before it was reaped
    if (map_[map_size_] == 0) {
      // It died before taking the spawn, which is still waiting in ctl for
      // a replacement that knows no registry: restart everything.
      note_server_death();
      return cold_fork(spec, stats);
    }
  } else if (*done != "next") {
    // "exit"/"reject": a replacement comes; its "reaped" may still be due.
    if (!done_reaped) {
      retiring_ = true;
      executor_ended();
    }
    if (*done != "exit") return cold_fork(spec, stats);
  }

  st.forked = true;
  const double wall = duration<double>(steady_clock::now() - t0).count();
  minimpi::RunResult result = detail::interpret_child_exit(
      spec, table_, frames, res_reader.bytes_fed(), map_, map_size_,
      timed_out, static_cast<int>(reaped.value_or(0)), wall, hang, st);
  const bool lives = !reaped.has_value() && *done == "next" && !done_reaped;
  if (lives && spec.registry != nullptr) {
    // The executor knows what the run's registry suffix added.
    synced_vars_ = spec.registry->size();
  }
  ++stats_.warm_spawns;
  stats_.last_spawn_seconds = wall;
  if (warm != nullptr) *warm = true;
  return result;
}

#endif  // COMPI_SANDBOX_POSIX

}  // namespace compi::sandbox
