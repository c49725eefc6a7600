// The one poll() loop under both servers of the serve layer: the
// control-plane HttpServer (http.h) and the coordinator's MsgServer
// (msg_server.h).
//
// A LoopbackServer binds 127.0.0.1 only and runs one thread that
// multiplexes the listener, a self-pipe stop() writes to, and every
// accepted connection (non-blocking, TCP_NODELAY).  The loop owns each
// connection's buffers: whatever arrives is appended to LoopConn::in, and
// LoopConn::out is flushed without blocking under POLLOUT, so a stalled
// client can never wedge the thread.  A connection is dropped on a
// hangup with nothing left to send, a hard send error, a drained `out`
// with close_after_flush set, or the protocol's say-so.  What the bytes
// mean is the Protocol's business; its hooks run ON the loop thread.
//
// Compiled to inert stubs (start() returns false) on non-POSIX builds and
// under COMPI_OBS_DISABLED — the obs-off preset ships without servers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace compi::serve {

struct LoopConn {
  int fd = -1;  // owned by the loop
  /// Monotonically increasing and never reused, so state keyed by id can't
  /// confuse two incarnations of the same peer.
  std::uint64_t id = 0;
  std::string in;   // received and not yet consumed by the protocol
  std::string out;  // queued for sending
  /// Close once `out` drains.
  bool close_after_flush = false;
};

class LoopbackServer {
 public:
  /// The protocol step a server plugs into the loop.
  class Protocol {
   public:
    virtual ~Protocol() = default;
    /// Bytes arrived on `c` (appended to c.in; `eof`: the peer closed its
    /// side).  Consume c.in and queue replies on c.out; false drops `c`.
    virtual bool on_input(LoopConn& c, bool eof) = 0;
    /// Once per tick for every open connection, after its flush, so
    /// c.out holds what the peer has not taken yet; push streams check
    /// their backlog and top up c.out here (a non-empty c.out polls for
    /// POLLOUT, so the next tick comes as soon as the socket drains).
    /// False drops `c`.
    virtual bool on_pump(LoopConn& c) {
      (void)c;
      return true;
    }
    /// `c` is closing (either side dropped it, or the server is stopping).
    /// Fires exactly once per accepted connection.
    virtual void on_close(const LoopConn& c) { (void)c; }
    /// Once per tick, after every connection was served.
    virtual void on_tick() {}
  };

  explicit LoopbackServer(Protocol& protocol);
  ~LoopbackServer();
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and spawns the loop thread,
  /// which wakes at least every `tick_ms`.  False when already running,
  /// when the bind fails, or when server support is compiled out.
  bool start(int port, int tick_ms);

  /// Stops and joins the loop thread, closing every connection.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] int port() const;
  [[nodiscard]] bool running() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace compi::serve
