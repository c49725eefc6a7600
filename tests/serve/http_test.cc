// The embedded HTTP server: request/response handlers, SSE stream
// sources, error statuses for malformed input, and lifecycle (ephemeral
// bind, idempotent stop).  Skipped wholesale where the server is
// compiled to stubs (non-POSIX or the obs-off preset).
#include "serve/http.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#ifdef __unix__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace compi::serve {
namespace {

#ifdef __unix__
/// Sends raw bytes to 127.0.0.1:`port` and returns the status line — for
/// exercising requests the GET-only client cannot produce.
std::string raw_roundtrip(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{2, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, request.data(), request.size(), 0) < 0) {
    ::close(fd);
    return "";
  }
  std::string out;
  char buf[512];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t eol = out.find("\r\n");
  return eol == std::string::npos ? out : out.substr(0, eol);
}
#endif

/// Starts `server` on an ephemeral port, skipping the test on stub builds.
#define START_OR_SKIP(server)                                       \
  do {                                                              \
    if (!(server).start(0)) {                                       \
      GTEST_SKIP() << "http server compiled out on this platform";  \
    }                                                               \
  } while (0)

TEST(HttpServerTest, ServesHandlerBodiesOverLoopback) {
  HttpServer server;
  server.handle("/hello", [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "method=" + req.method + " path=" + req.path +
                " query=" + req.query;
    return resp;
  });
  START_OR_SKIP(server);
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);

  const std::string target = "127.0.0.1:" + std::to_string(server.port());
  const auto resp = http_get(target, "/hello?x=1");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "method=GET path=/hello query=x=1");

  const auto missing = http_get(target, "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  EXPECT_GE(server.requests_served(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(HttpServerTest, HandlerStatusAndContentTypePassThrough) {
  HttpServer server;
  server.handle("/teapot", [](const HttpRequest&) {
    HttpResponse resp;
    resp.status = 404;
    resp.body = "gone";
    return resp;
  });
  START_OR_SKIP(server);
  const auto resp =
      http_get("127.0.0.1:" + std::to_string(server.port()), "/teapot");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(resp->body, "gone");
}

TEST(HttpServerTest, StreamSourceIsPolledUntilClientLimit) {
  // The source hands out one numbered frame per poll; the streaming
  // client reads until its byte budget is met.
  HttpServer server;
  std::atomic<int> polls{0};
  server.handle_stream("/events",
                       [&](std::uint64_t& cursor, std::string& out) {
                         out += "data: frame-" + std::to_string(cursor) +
                                "\n\n";
                         ++cursor;
                         ++polls;
                       });
  START_OR_SKIP(server);
  const auto body = http_get_stream(
      "127.0.0.1:" + std::to_string(server.port()), "/events", 64, 2000);
  ASSERT_TRUE(body.has_value());
  EXPECT_NE(body->find(": stream open"), std::string::npos);
  EXPECT_NE(body->find("data: frame-0"), std::string::npos);
  EXPECT_GE(polls.load(), 1);
}

TEST(HttpServerTest, StreamOpeningPastTheBacklogCapStillSendsItsHead) {
  // A client that connects to a full journal tap gets a first pump larger
  // than the backlog cap: the head must go out before the cap drops the
  // stream.
  HttpServer server;
  server.handle_stream("/events",
                       [](std::uint64_t& cursor, std::string& out) {
                         if (cursor++ == 0) {
                           out += "data: " + std::string(512 * 1024, 'x') +
                                  "\n\n";
                         }
                       });
  START_OR_SKIP(server);
  const auto body = http_get_stream(
      "127.0.0.1:" + std::to_string(server.port()), "/events", 64, 2000);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->rfind(": stream open", 0), 0u);
}

TEST(HttpServerTest, EphemeralPortsAreDistinctAcrossServers) {
  HttpServer a, b;
  a.handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  b.handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  START_OR_SKIP(a);
  START_OR_SKIP(b);
  EXPECT_NE(a.port(), b.port());
}

TEST(HttpServerTest, RejectsOutOfRangePortsWithoutStarting) {
  HttpServer server;
  EXPECT_FALSE(server.start(-5));
  EXPECT_FALSE(server.start(70000));
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, NonGetAndMalformedRequestsGetErrorStatuses) {
#ifndef __unix__
  GTEST_SKIP() << "raw socket helper is POSIX-only";
#else
  HttpServer server;
  server.handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  START_OR_SKIP(server);
  EXPECT_NE(
      raw_roundtrip(server.port(), "POST /x HTTP/1.1\r\n\r\n").find("405"),
      std::string::npos);
  EXPECT_NE(raw_roundtrip(server.port(), "complete garbage\r\n\r\n")
                .find("400"),
            std::string::npos);
#endif
}

TEST(HttpClientTest, FailsCleanlyAgainstNothingListening) {
  HttpServer probe;
  probe.handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  START_OR_SKIP(probe);
  const int dead_port = probe.port();
  probe.stop();  // the port is now free: connects must fail fast

  EXPECT_FALSE(
      http_get("127.0.0.1:" + std::to_string(dead_port), "/", 500)
          .has_value());
  EXPECT_FALSE(http_get("not a host", "/").has_value());
  EXPECT_FALSE(http_get("127.0.0.1:notaport", "/").has_value());
  EXPECT_FALSE(http_get("127.0.0.1", "/").has_value());  // no port at all
}

}  // namespace
}  // namespace compi::serve
