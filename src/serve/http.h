// A dependency-free embedded HTTP/1.1 server for the campaign control
// plane: loopback-only, GET-only.
//
// It runs on the shared loopback poll loop (serve/loopback.h: one thread,
// non-blocking sockets, a self-pipe to wake the loop for stop(), per-
// connection buffers drained under POLLOUT), like the coordinator's
// MsgServer; this class adds only its protocol step, the request parse
// and the stream pump.  Two endpoint shapes are supported:
//   * handle(path, fn)        — request/response: fn renders the whole
//                               body, the loop frames and flushes it.
//   * handle_stream(path, fn) — Server-Sent-Events: the connection stays
//                               open and fn is polled every loop tick with
//                               the connection's cursor, appending any
//                               newly available `data:` frames.
// Handlers run ON the server thread, so they must only touch state that
// is safe to read from a foreign thread (the control plane passes
// mutex-guarded snapshot closures).  A stalled client can never wedge the
// loop, and a stream whose buffer backs up past the cap is dropped.
//
// start() and the client calls fail on non-POSIX builds and under
// COMPI_OBS_DISABLED, where the loop is compiled out — the obs-off preset
// ships without a server.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace compi::serve {

struct HttpRequest {
  std::string method;
  std::string path;   // before '?'
  std::string query;  // after '?', possibly empty
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Pull-model stream source: called with the connection's cursor; appends
/// ready-to-send bytes (already SSE-framed) to `out` and advances the
/// cursor past everything appended.
using StreamSource = std::function<void(std::uint64_t& cursor,
                                        std::string& out)>;

class HttpServer {
 public:
  HttpServer();
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registration must happen before start() (the maps are not locked).
  void handle(const std::string& path, HttpHandler h);
  void handle_stream(const std::string& path, StreamSource s);

  /// Emit an SSE comment frame (": keepalive\n\n") on any stream that has
  /// produced no output for `ms` milliseconds, so proxies and client read
  /// timeouts don't sever quiet /events connections.  0 disables.  Must be
  /// called before start() (read by the server thread without locking).
  void set_stream_keepalive(int ms);

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and spawns the server thread.
  /// Returns false when the bind fails or server support is compiled out.
  bool start(int port);

  /// Stops and joins the server thread, closing every connection.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] int port() const;
  [[nodiscard]] bool running() const;
  /// Requests dispatched since start() (streams count once, at open).
  [[nodiscard]] std::uint64_t requests_served() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- minimal blocking client (compi top, tests, CI smoke) ----

struct HttpClientResponse {
  int status = 0;
  std::string body;
};

/// Blocking GET against "host:port" (host must be an IPv4 literal; bare
/// ":port" or "port" default to 127.0.0.1).  nullopt on connect/timeout
/// failure or a malformed response.  Compiled-out builds always fail.
[[nodiscard]] std::optional<HttpClientResponse> http_get(
    const std::string& host_port, const std::string& path,
    int timeout_ms = 2000);

/// Streaming GET: reads up to `max_bytes` of body (headers stripped) or
/// until `timeout_ms` elapses / the peer closes, whichever comes first.
[[nodiscard]] std::optional<std::string> http_get_stream(
    const std::string& host_port, const std::string& path,
    std::size_t max_bytes, int timeout_ms);

}  // namespace compi::serve
