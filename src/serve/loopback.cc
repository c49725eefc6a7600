#include "serve/loopback.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

// Defines COMPI_SERVE_POSIX and pulls in the EINTR-safe syscall wrappers
// (net::xpoll/xaccept/xrecv/xsend/...) the loop goes through: a stray
// signal must never drop a connection or wedge the serve thread.
#include "serve/net_util.h"

namespace compi::serve {

#ifdef COMPI_SERVE_POSIX

struct LoopbackServer::Impl {
  explicit Impl(Protocol& p) : protocol(p) {}
  ~Impl() { close_fds(); }

  Protocol& protocol;
  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  int port = -1;
  int tick_ms = 50;
  std::atomic<bool> running{false};
  std::atomic<bool> stop_requested{false};
  std::thread thread;
  std::vector<LoopConn> conns;
  std::uint64_t next_conn_id = 1;

  void close_fds() {
    for (LoopConn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
    listen_fd = wake_read = wake_write = -1;
  }

  bool bind_and_listen(int want_port) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return false;
    const int one = 1;
    (void)::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(want_port));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 32) != 0 || !net::set_nonblocking(listen_fd)) {
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return false;
    }
    port = static_cast<int>(ntohs(bound.sin_port));
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return false;
    wake_read = pipe_fds[0];
    wake_write = pipe_fds[1];
    (void)net::set_nonblocking(wake_read);
    return true;
  }

  void accept_all() {
    for (;;) {
      const int fd = net::xaccept(listen_fd);
      if (fd < 0) return;
      if (!net::set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      LoopConn c;
      c.fd = fd;
      c.id = next_conn_id++;
      conns.push_back(std::move(c));
    }
  }

  void drop(LoopConn& c) {
    ::close(c.fd);
    c.fd = -1;
    protocol.on_close(c);
  }

  /// One tick of one connection; false when it must be dropped.
  bool serve(LoopConn& c, short revents) {
    if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 && c.out.empty()) {
      return false;
    }
    if ((revents & POLLIN) != 0) {
      char buf[4096];
      bool eof = false;
      for (;;) {
        const ssize_t n = net::xrecv(c.fd, buf, sizeof(buf));
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        eof = n == 0;
        break;
      }
      if (!protocol.on_input(c, eof)) return false;
    }
    if (!c.out.empty()) {
      const ssize_t n =
          net::xsend(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        return false;
      }
    }
    if (!protocol.on_pump(c)) return false;
    return !(c.out.empty() && c.close_after_flush);
  }

  void loop() {
    std::vector<pollfd> pfds;
    while (!stop_requested.load(std::memory_order_relaxed)) {
      pfds.clear();
      pfds.push_back({wake_read, POLLIN, 0});
      pfds.push_back({listen_fd, POLLIN, 0});
      for (const LoopConn& c : conns) {
        short events = POLLIN;
        if (!c.out.empty()) events |= POLLOUT;
        pfds.push_back({c.fd, events, 0});
      }
      (void)net::xpoll(pfds.data(), pfds.size(), tick_ms);
      if ((pfds[0].revents & POLLIN) != 0) {
        char buf[64];
        while (net::xread(wake_read, buf, sizeof(buf)) > 0) {
        }
      }
      // pfds[i + 2] pairs with the conns entry i from before the accept;
      // fresh conns get polled next tick.
      const std::size_t polled = pfds.size() - 2;
      if ((pfds[1].revents & POLLIN) != 0) accept_all();
      for (std::size_t i = 0; i < polled; ++i) {
        if (!serve(conns[i], pfds[i + 2].revents)) drop(conns[i]);
      }
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const LoopConn& c) { return c.fd < 0; }),
                  conns.end());
      protocol.on_tick();
    }
    for (LoopConn& c : conns) drop(c);
    conns.clear();
  }
};

LoopbackServer::LoopbackServer(Protocol& protocol)
    : impl_(std::make_unique<Impl>(protocol)) {}

LoopbackServer::~LoopbackServer() { stop(); }

bool LoopbackServer::start(int port, int tick_ms) {
  if (impl_->running.load()) return false;
  if (port < 0 || port > 65535) return false;
  if (!impl_->bind_and_listen(port)) {
    impl_->close_fds();
    return false;
  }
  impl_->tick_ms = tick_ms > 0 ? tick_ms : 50;
  impl_->stop_requested.store(false);
  impl_->running.store(true);
  impl_->thread = std::thread([impl = impl_.get()] { impl->loop(); });
  return true;
}

void LoopbackServer::stop() {
  if (!impl_->running.load()) return;
  impl_->stop_requested.store(true);
  if (impl_->wake_write >= 0) {
    const char byte = 'x';
    (void)!::write(impl_->wake_write, &byte, 1);
  }
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->close_fds();
  impl_->running.store(false);
}

int LoopbackServer::port() const { return impl_->port; }

bool LoopbackServer::running() const { return impl_->running.load(); }

#else  // !COMPI_SERVE_POSIX — inert stubs (obs-off preset / non-POSIX)

struct LoopbackServer::Impl {};

LoopbackServer::LoopbackServer(Protocol&) {}
LoopbackServer::~LoopbackServer() = default;
bool LoopbackServer::start(int, int) { return false; }
void LoopbackServer::stop() {}
int LoopbackServer::port() const { return -1; }
bool LoopbackServer::running() const { return false; }

#endif  // COMPI_SERVE_POSIX

}  // namespace compi::serve
