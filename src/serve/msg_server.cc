#include "serve/msg_server.h"

#include <unordered_map>

#include "serve/loopback.h"

namespace compi::serve {

struct MsgServer::Impl final : LoopbackServer::Protocol {
  Callbacks cb;
  std::string valid_types;
  /// One frame reader per open connection, keyed by connection id.
  std::unordered_map<std::uint64_t, WireFrameReader> readers;
  LoopbackServer loop{*this};

  bool on_input(LoopConn& c, bool eof) override {
    WireFrameReader& reader =
        readers.try_emplace(c.id, valid_types).first->second;
    reader.feed(c.in.data(), c.in.size());
    c.in.clear();
    while (auto frame = reader.next()) {
      if (cb.on_frame) {
        const WireFrame reply = cb.on_frame(c.id, *frame);
        append_wire_frame(c.out, reply.type, reply.payload);
      }
    }
    return !reader.corrupt() && !(eof && c.out.empty());
  }

  void on_close(const LoopConn& c) override {
    readers.erase(c.id);
    if (cb.on_disconnect) cb.on_disconnect(c.id);
  }

  void on_tick() override {
    if (cb.on_tick) cb.on_tick();
  }
};

MsgServer::MsgServer() : impl_(std::make_unique<Impl>()) {}

MsgServer::~MsgServer() { stop(); }

void MsgServer::set_callbacks(Callbacks cb) { impl_->cb = std::move(cb); }

bool MsgServer::start(int port, const std::string& valid_types,
                      int tick_ms) {
  if (impl_->loop.running()) return false;
  impl_->valid_types = valid_types;
  return impl_->loop.start(port, tick_ms);
}

void MsgServer::stop() { impl_->loop.stop(); }

int MsgServer::port() const { return impl_->loop.port(); }

bool MsgServer::running() const { return impl_->loop.running(); }

}  // namespace compi::serve
