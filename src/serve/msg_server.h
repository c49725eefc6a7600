// A TCP message server speaking the length-prefixed frame format in
// serve/frame.h — the transport under the campaign coordinator.
//
// It runs on the shared loopback poll loop (serve/loopback.h: one thread,
// 127.0.0.1 only, non-blocking sockets, self-pipe stop wake), like the
// control-plane HTTP server; this class adds only its protocol step: a
// frame reader per connection and strict request/response, where every
// frame a client sends gets exactly one reply frame.  Callbacks run ON the
// server thread:
//   * on_frame(conn, frame) — must return the reply frame.
//   * on_disconnect(conn)   — the connection closed (peer hangup, corrupt
//                             stream, or server stop).  Fired at most once
//                             per connection id.
//   * on_tick()             — every poll tick (~tick_ms), whether or not
//                             any traffic arrived; the coordinator runs
//                             lease-expiry scans and checkpoints here.
// Connection ids are monotonically increasing and never reused, so a
// callback holding state keyed by id can't confuse two incarnations of
// the same shard.
//
// start() returns false on non-POSIX builds and under COMPI_OBS_DISABLED,
// where the loop is compiled out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/frame.h"

namespace compi::serve {

class MsgServer {
 public:
  struct Callbacks {
    std::function<WireFrame(std::uint64_t conn, const WireFrame&)> on_frame;
    std::function<void(std::uint64_t conn)> on_disconnect;
    std::function<void()> on_tick;
  };

  MsgServer();
  ~MsgServer();
  MsgServer(const MsgServer&) = delete;
  MsgServer& operator=(const MsgServer&) = delete;

  /// Must be called before start() (the callbacks are not locked).
  void set_callbacks(Callbacks cb);

  /// Binds 127.0.0.1:`port` (0 = ephemeral), accepting only frames whose
  /// tag appears in `valid_types`, and spawns the server thread.  Returns
  /// false when the bind fails or server support is compiled out.
  bool start(int port, const std::string& valid_types, int tick_ms = 50);

  /// Stops and joins the server thread, closing every connection (each
  /// open connection gets a final on_disconnect).  Idempotent.
  void stop();

  [[nodiscard]] int port() const;
  [[nodiscard]] bool running() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace compi::serve
