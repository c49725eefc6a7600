// EINTR-safe socket helpers shared by the loopback server loop (under the
// control-plane HTTP server and the campaign coordinator), the HTTP
// client, and the shard link.
//
// Every blocking syscall the serve layer issues goes through one of these
// wrappers: a stray signal (SIGCHLD from the sandbox supervisor, a
// profiler's SIGPROF, an operator's SIGWINCH) interrupts the call with
// EINTR, and without the retry a serve thread would drop a connection or a
// shard would misread a frame boundary.  The wrappers retry EINTR
// transparently and leave every other error to the caller.
//
// Compiled out (like the rest of the serve layer) on non-POSIX builds and
// under COMPI_OBS_DISABLED.
#pragma once

#if (defined(__unix__) || defined(__APPLE__)) && !defined(COMPI_OBS_DISABLED)
#define COMPI_SERVE_POSIX 1
#endif

#ifdef COMPI_SERVE_POSIX

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>

namespace compi::serve::net {

/// poll() retrying EINTR with the same timeout.  For tick-driven loops the
/// slightly stretched tick is harmless; callers needing a hard deadline
/// should re-derive the remaining time themselves.
inline int xpoll(pollfd* fds, nfds_t nfds, int timeout_ms) {
  for (;;) {
    const int n = ::poll(fds, nfds, timeout_ms);
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// poll() against an absolute deadline: each EINTR retry re-derives the
/// remaining wait, so a signal storm cannot stretch the timeout forever
/// (SO_RCVTIMEO restarts per syscall, which a naive retry loop turns into
/// an unbounded wait).  Returns 0 once the deadline has passed.
inline int xpoll_deadline(pollfd* fds, nfds_t nfds,
                          std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return 0;
    const long long ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1;
    const int n = ::poll(fds, nfds,
                         static_cast<int>(std::min<long long>(ms, INT_MAX)));
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// accept() retrying EINTR.  Other errors (EAGAIN on a drained
/// non-blocking listener included) surface as -1.
inline int xaccept(int fd) {
  for (;;) {
    const int c = ::accept(fd, nullptr, nullptr);
    if (c >= 0 || errno != EINTR) return c;
  }
}

inline ssize_t xrecv(int fd, void* buf, std::size_t len, int flags = 0) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, flags);
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline ssize_t xsend(int fd, const void* buf, std::size_t len,
                     int flags = 0) {
  for (;;) {
    const ssize_t n = ::send(fd, buf, len, flags);
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline ssize_t xread(int fd, void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// Sends the whole buffer, retrying EINTR and short writes.  False on any
/// hard error (including a peer that hung up — MSG_NOSIGNAL keeps SIGPIPE
/// from killing the process).
inline bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = xsend(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

inline bool send_all(int fd, const std::string& data) {
  return send_all(fd, data.data(), data.size());
}

/// Reads exactly `len` bytes from a blocking socket, retrying EINTR and
/// short reads.  False on EOF, timeout (SO_RCVTIMEO surfaces as
/// EAGAIN/EWOULDBLOCK), or any hard error.
inline bool recv_all(int fd, char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = xrecv(fd, data + off, len - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

inline bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Parses "host:port" / ":port" / "port" into an IPv4 sockaddr
/// (host defaults to 127.0.0.1; "localhost" is rewritten to it).
inline bool parse_host_port(const std::string& host_port,
                            sockaddr_in& addr) {
  std::string host = "127.0.0.1";
  std::string port = host_port;
  const std::size_t colon = host_port.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host = host_port.substr(0, colon);
    port = host_port.substr(colon + 1);
  }
  if (port.empty()) return false;
  char* end = nullptr;
  const long p = std::strtol(port.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || p <= 0 || p > 65535) return false;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(p));
  if (host == "localhost") host = "127.0.0.1";
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

/// Blocking connect with send/receive deadlines; -1 on failure.  A signal
/// interrupting connect() leaves the handshake in flight, so EINTR is
/// completed by polling for writability until the deadline and checking
/// SO_ERROR — failing instead would make every client flaky under a
/// signal-heavy process (sandbox SIGCHLD, profiler SIGPROF).
inline int connect_client(const std::string& host_port, int timeout_ms) {
  sockaddr_in addr{};
  if (!parse_host_port(host_port, addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINTR) {
      ::close(fd);
      return -1;
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    int err = 0;
    socklen_t len = sizeof(err);
    if (xpoll_deadline(&p, 1, deadline) <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace compi::serve::net

#endif  // COMPI_SERVE_POSIX
