#include "serve/http.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <unordered_map>

#include "serve/loopback.h"
// Defines COMPI_SERVE_POSIX and pulls in the EINTR-safe syscall wrappers
// the client below goes through.
#include "serve/net_util.h"

namespace compi::serve {

namespace {

constexpr std::size_t kMaxRequestBytes = 8 * 1024;
/// A stream whose client stops reading is dropped once this much output
/// is buffered — the server thread must never wait on a slow consumer.
constexpr std::size_t kMaxStreamBacklog = 256 * 1024;
constexpr int kPollTickMs = 50;

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string frame_response(const HttpResponse& r) {
  std::string out = "HTTP/1.1 " + std::to_string(r.status) + " " +
                    reason_phrase(r.status) + "\r\n";
  out += "Content-Type: " + r.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += r.body;
  return out;
}

}  // namespace

struct HttpServer::Impl final : LoopbackServer::Protocol {
  std::map<std::string, HttpHandler> handlers;
  std::map<std::string, StreamSource> streams;
  int stream_keepalive_ms = 0;
  std::atomic<std::uint64_t> requests{0};

  /// An open Server-Sent-Events connection, keyed by connection id.
  struct Stream {
    const StreamSource* source = nullptr;
    std::uint64_t cursor = 0;
    /// Last time this stream appended output (frames or keepalives); the
    /// idle clock the keepalive comment is measured against.
    std::chrono::steady_clock::time_point last_activity =
        std::chrono::steady_clock::now();
  };
  std::unordered_map<std::uint64_t, Stream> open_streams;
  LoopbackServer loop{*this};

  void dispatch(LoopConn& c) {
    // Request line: METHOD SP PATH SP VERSION.  Headers are ignored — the
    // control plane has no use for them.
    HttpRequest req;
    const std::size_t line_end = c.in.find("\r\n");
    const std::string line =
        c.in.substr(0, line_end == std::string::npos ? c.in.find('\n')
                                                     : line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    c.close_after_flush = true;
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      c.out = frame_response({400, "text/plain", "bad request\n"});
      return;
    }
    req.method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t qmark = target.find('?');
    if (qmark != std::string::npos) {
      req.query = target.substr(qmark + 1);
      target.resize(qmark);
    }
    req.path = std::move(target);
    requests.fetch_add(1, std::memory_order_relaxed);
    if (req.method != "GET") {
      c.out = frame_response({405, "text/plain", "GET only\n"});
      return;
    }
    if (const auto s = streams.find(req.path); s != streams.end()) {
      c.close_after_flush = false;
      Stream& st = open_streams[c.id];
      st.source = &s->second;
      c.out =
          "HTTP/1.1 200 OK\r\n"
          "Content-Type: text/event-stream\r\n"
          "Cache-Control: no-cache\r\n"
          "Connection: close\r\n\r\n"
          ": stream open\n\n";
      (*st.source)(st.cursor, c.out);
      return;
    }
    if (const auto h = handlers.find(req.path); h != handlers.end()) {
      c.out = frame_response(h->second(req));
    } else {
      c.out = frame_response({404, "text/plain", "not found\n"});
    }
  }

  bool on_input(LoopConn& c, bool eof) override {
    const bool is_stream = open_streams.count(c.id) != 0;
    if (eof && c.out.empty() && !is_stream) return false;
    if (!is_stream && c.out.empty() &&
        (c.in.find("\r\n\r\n") != std::string::npos ||
         c.in.find("\n\n") != std::string::npos)) {
      dispatch(c);
    } else if (c.in.size() > kMaxRequestBytes) {
      c.out = frame_response({400, "text/plain", "request too large\n"});
      c.close_after_flush = true;
    }
    return true;
  }

  bool on_pump(LoopConn& c) override {
    const auto it = open_streams.find(c.id);
    if (it == open_streams.end()) return true;
    Stream& st = it->second;
    if (c.out.size() >= kMaxStreamBacklog) return false;  // stopped reading
    const std::size_t before = c.out.size();
    (*st.source)(st.cursor, c.out);
    const auto now = std::chrono::steady_clock::now();
    if (c.out.size() != before) {
      st.last_activity = now;
    } else if (stream_keepalive_ms > 0 && c.out.empty() &&
               now - st.last_activity >=
                   std::chrono::milliseconds(stream_keepalive_ms)) {
      c.out += ": keepalive\n\n";
      st.last_activity = now;
    }
    return true;
  }

  void on_close(const LoopConn& c) override { open_streams.erase(c.id); }
};

HttpServer::HttpServer() : impl_(std::make_unique<Impl>()) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(const std::string& path, HttpHandler h) {
  impl_->handlers[path] = std::move(h);
}

void HttpServer::handle_stream(const std::string& path, StreamSource s) {
  impl_->streams[path] = std::move(s);
}

void HttpServer::set_stream_keepalive(int ms) {
  impl_->stream_keepalive_ms = ms;
}

bool HttpServer::start(int port) {
  return impl_->loop.start(port, kPollTickMs);
}

void HttpServer::stop() { impl_->loop.stop(); }

int HttpServer::port() const { return impl_->loop.port(); }

bool HttpServer::running() const { return impl_->loop.running(); }

std::uint64_t HttpServer::requests_served() const {
  return impl_->requests.load(std::memory_order_relaxed);
}

#ifdef COMPI_SERVE_POSIX

namespace {

/// Sends a GET and reads the raw response until the peer closes,
/// `timeout_ms` passes, or the body holds `max_body` bytes; nullopt on a
/// connect/send failure or a malformed response.
std::optional<HttpClientResponse> fetch(const std::string& host_port,
                                        const std::string& path,
                                        int timeout_ms,
                                        std::size_t max_body) {
  const int fd = net::connect_client(host_port, timeout_ms);
  if (fd < 0) return std::nullopt;
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: " + host_port +
                          "\r\nConnection: close\r\n\r\n";
  if (!net::send_all(fd, req)) {
    ::close(fd);
    return std::nullopt;
  }
  // Read under a hard deadline: poll re-derives the remaining wait across
  // EINTR retries, so SO_RCVTIMEO restarting per recv() cannot turn the
  // timeout into an unbounded wait under a signal storm.  A stream never
  // closes on its own, so for one the deadline or `max_body` is the exit.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string raw;
  char buf[4096];
  std::size_t header_end = std::string::npos;
  while (raw.size() < 512 || raw.size() - 512 < max_body) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    if (net::xpoll_deadline(&p, 1, deadline) <= 0) break;  // timeout/error
    const ssize_t n = net::xrecv(fd, buf, sizeof(buf));
    if (n <= 0) break;  // EOF or error — parse what arrived
    raw.append(buf, static_cast<std::size_t>(n));
    if (header_end == std::string::npos) header_end = raw.find("\r\n\r\n");
    if (header_end != std::string::npos &&
        raw.size() - header_end - 4 >= max_body) {
      break;
    }
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.", 0) != 0 || header_end == std::string::npos) {
    return std::nullopt;
  }
  HttpClientResponse r;
  r.status = std::atoi(raw.c_str() + 9);
  r.body = raw.substr(header_end + 4);
  return r;
}

}  // namespace

#else  // !COMPI_SERVE_POSIX — no client on obs-off / non-POSIX builds

namespace {

std::optional<HttpClientResponse> fetch(const std::string&,
                                        const std::string&, int,
                                        std::size_t) {
  return std::nullopt;
}

}  // namespace

#endif  // COMPI_SERVE_POSIX

std::optional<HttpClientResponse> http_get(const std::string& host_port,
                                           const std::string& path,
                                           int timeout_ms) {
  return fetch(host_port, path, timeout_ms,
               std::numeric_limits<std::size_t>::max());
}

std::optional<std::string> http_get_stream(const std::string& host_port,
                                           const std::string& path,
                                           std::size_t max_bytes,
                                           int timeout_ms) {
  std::optional<HttpClientResponse> r =
      fetch(host_port, path, timeout_ms, max_bytes);
  if (!r) return std::nullopt;
  return std::move(r->body);
}

}  // namespace compi::serve
