#include "compi/shard_link.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "compi/coord_protocol.h"
#include "compi/driver_internal.h"
#include "serve/frame.h"
#include "serve/net_util.h"

namespace compi {

#ifdef COMPI_SERVE_POSIX

namespace {

using Clock = std::chrono::steady_clock;

/// Latest full local state, retained for retransmission after reconnects
/// (the rejoin reconciliation upload).
struct Snapshot {
  std::int64_t iterations = 0;
  std::vector<sym::BranchId> covered;
  std::vector<std::uint64_t> iseen;
  std::vector<BugRecord> bugs;
  std::string ledger_blob;
  bool final_report = false;
  bool has_data = false;
  /// Latest telemetry snapshot, piggybacked on deltas AND heartbeats so an
  /// idle (leased-out, slow-iteration) shard still reports live rates.
  coord::ShardTelemetry telemetry;
};

std::int64_t wall_clock_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mint_token(const ShardLinkOptions& opts, const void* self) {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  std::uint64_t t = static_cast<std::uint64_t>(now.count());
  t = detail::mix_seed(t, opts.seed);
  t = detail::mix_seed(t, reinterpret_cast<std::uintptr_t>(self));
  for (char c : opts.name) t = detail::mix_seed(t, static_cast<std::uint64_t>(c));
  return t;
}

}  // namespace

struct ShardLink::Impl {
  ShardLinkOptions opts;
  std::uint64_t token;
  std::string key;

  mutable std::mutex mu;
  std::condition_variable cv;
  std::thread thread;

  int fd = -1;
  bool connected_flag = false;
  bool degraded = false;
  bool stop_campaign = false;
  bool shutting_down = false;
  int failures = 0;
  int backoff_ms = 0;
  Clock::time_point next_attempt = Clock::now();

  Snapshot snap;
  int unreported = 0;
  /// Iterations of granted lease quota not yet consumed by acquire().
  int leased = 0;

  std::vector<sym::BranchId> remote_covered;
  std::vector<std::uint64_t> remote_iseen;

  explicit Impl(ShardLinkOptions o)
      : opts(std::move(o)),
        token(mint_token(opts, this)),
        key(coord::shard_key(opts.name, token)),
        backoff_ms(std::max(1, opts.reconnect_initial_ms)) {}

  void close_locked() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    connected_flag = false;
  }

  /// Books a connection failure: closes the socket and schedules the next
  /// attempt with exponential backoff plus deterministic jitter.
  void note_failure_locked() {
    close_locked();
    ++failures;
    if (failures >= std::max(1, opts.standalone_after_failures)) {
      degraded = true;
      cv.notify_all();  // acquire() waiters may now go standalone
    }
    const int jitter_span = std::max(1, backoff_ms / 4);
    const int jitter = static_cast<int>(
        detail::mix_seed(token, static_cast<std::uint64_t>(failures)) %
        static_cast<std::uint64_t>(jitter_span));
    next_attempt =
        Clock::now() + std::chrono::milliseconds(backoff_ms + jitter);
    backoff_ms = std::min(backoff_ms * 2, std::max(backoff_ms,
                                                   opts.reconnect_max_ms));
  }

  /// One request/response round trip on the open socket.  False (with
  /// failure bookkeeping) on any transport error or protocol violation.
  bool transact_locked(char type, const std::string& payload,
                       serve::WireFrame& reply) {
    if (fd < 0) return false;
    std::string out;
    serve::append_wire_frame(out, type, payload);
    if (!serve::net::send_all(fd, out)) {
      note_failure_locked();
      return false;
    }
    char hdr[serve::kWireFrameHeaderBytes];
    if (!serve::net::recv_all(fd, hdr, sizeof(hdr))) {
      note_failure_locked();
      return false;
    }
    const std::size_t len =
        static_cast<std::size_t>(static_cast<unsigned char>(hdr[0])) |
        static_cast<std::size_t>(static_cast<unsigned char>(hdr[1])) << 8 |
        static_cast<std::size_t>(static_cast<unsigned char>(hdr[2])) << 16 |
        static_cast<std::size_t>(static_cast<unsigned char>(hdr[3])) << 24;
    const char t = hdr[4];
    if (std::strchr(coord::kShardAccepts, t) == nullptr ||
        len > serve::kMaxWireFramePayload) {
      note_failure_locked();
      return false;
    }
    reply.type = t;
    reply.payload.resize(len);
    if (len > 0 && !serve::net::recv_all(fd, reply.payload.data(), len)) {
      note_failure_locked();
      return false;
    }
    return true;
  }

  void absorb_sync_locked(const coord::CoverageSync& sync) {
    remote_covered.insert(remote_covered.end(), sync.covered.begin(),
                          sync.covered.end());
    remote_iseen.insert(remote_iseen.end(), sync.interleaving_seen.begin(),
                        sync.interleaving_seen.end());
  }

  /// Uploads the retained snapshot.  On success the Ack's coverage sync is
  /// absorbed and a stop verdict latches.
  bool transmit_locked() {
    if (!snap.has_data || fd < 0) return false;
    coord::DeltaMsg m;
    m.shard = key;
    m.iterations = snap.iterations;
    m.covered = snap.covered;
    m.interleaving_seen = snap.iseen;
    m.bugs = snap.bugs;
    m.ledger_blob = snap.ledger_blob;
    m.final_report = snap.final_report;
    m.telemetry = snap.telemetry;
    serve::WireFrame reply;
    if (!transact_locked(coord::kDelta, coord::encode_delta(m), reply)) {
      return false;
    }
    if (reply.type != coord::kAck) {
      note_failure_locked();  // coordinator forgot us: re-handshake
      return false;
    }
    coord::AckMsg a;
    if (!coord::decode_ack(reply.payload, a)) {
      note_failure_locked();
      return false;
    }
    absorb_sync_locked(a.sync);
    if (a.stop) {
      stop_campaign = true;
      cv.notify_all();
    }
    unreported = 0;
    return true;
  }

  /// Connect + Hello/Welcome handshake + rejoin reconciliation.
  bool connect_locked() {
    close_locked();
    fd = serve::net::connect_client(opts.connect, opts.io_timeout_ms);
    if (fd < 0) {
      note_failure_locked();
      return false;
    }
    coord::HelloMsg h;
    h.name = opts.name;
    h.token = token;
    h.seed = opts.seed;
    h.wall_us = wall_clock_us();
    serve::WireFrame reply;
    if (!transact_locked(coord::kHello, coord::encode_hello(h), reply)) {
      return false;
    }
    coord::WelcomeMsg w;
    if (reply.type != coord::kWelcome ||
        !coord::decode_welcome(reply.payload, w)) {
      note_failure_locked();
      return false;
    }
    absorb_sync_locked(w.sync);
    connected_flag = true;
    degraded = false;
    failures = 0;
    backoff_ms = std::max(1, opts.reconnect_initial_ms);
    // Reconcile: everything earned while disconnected goes up now.
    if (snap.has_data) (void)transmit_locked();
    cv.notify_all();
    return connected_flag;
  }

  void background() {
    std::unique_lock<std::mutex> lock(mu);
    auto last_beat = Clock::now();
    while (!shutting_down) {
      cv.wait_for(lock, std::chrono::milliseconds(
                            std::max(10, opts.lease_wait_poll_ms)));
      if (shutting_down) break;
      const auto now = Clock::now();
      if (!connected_flag && !stop_campaign && now >= next_attempt) {
        (void)connect_locked();
        continue;
      }
      if (connected_flag &&
          now - last_beat >=
              std::chrono::milliseconds(std::max(50, opts.heartbeat_ms))) {
        last_beat = now;
        if (snap.has_data && unreported > 0) {
          (void)transmit_locked();
          continue;
        }
        coord::HeartbeatMsg m;
        m.shard = key;
        m.telemetry = snap.telemetry;
        serve::WireFrame reply;
        if (!transact_locked(coord::kHeartbeat,
                             coord::encode_heartbeat(m), reply)) {
          continue;
        }
        if (reply.type != coord::kAck) {
          note_failure_locked();
          continue;
        }
        coord::AckMsg a;
        if (!coord::decode_ack(reply.payload, a)) {
          note_failure_locked();
          continue;
        }
        absorb_sync_locked(a.sync);
        if (a.stop) {
          stop_campaign = true;
          cv.notify_all();
        }
      }
    }
  }
};

ShardLink::ShardLink(ShardLinkOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

ShardLink::~ShardLink() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutting_down = true;
    impl_->cv.notify_all();
  }
  if (impl_->thread.joinable()) impl_->thread.join();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->close_locked();
}

bool ShardLink::start() {
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    ok = impl_->connect_locked();
  }
  impl_->thread = std::thread([im = impl_.get()] { im->background(); });
  return ok;
}

void ShardLink::finish() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->connected_flag) return;
  if (impl_->snap.has_data) {
    impl_->snap.final_report = true;
    (void)impl_->transmit_locked();
  }
  if (impl_->connected_flag) {
    coord::HeartbeatMsg m;
    m.shard = impl_->key;
    serve::WireFrame reply;
    (void)impl_->transact_locked(coord::kFinished,
                                 coord::encode_heartbeat(m), reply);
  }
}

int ShardLink::acquire(int wanted) {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.mu);
  for (;;) {
    if (im.shutting_down || im.stop_campaign) return 0;
    if (im.leased > 0) {
      const int n = std::min(wanted, im.leased);
      im.leased -= n;
      return n;
    }
    if (!im.connected_flag) {
      if (im.degraded) return wanted;  // standalone: local budget governs
      im.cv.wait_for(lock, std::chrono::milliseconds(
                               std::max(10, im.opts.lease_wait_poll_ms)));
      continue;
    }
    // Flush results before asking for more work, so the coordinator's
    // accounting is current when it sizes the grant.
    if (im.snap.has_data && im.unreported > 0) (void)im.transmit_locked();
    if (!im.connected_flag || im.stop_campaign) continue;
    coord::LeaseRequestMsg m;
    m.shard = im.key;
    serve::WireFrame reply;
    if (!im.transact_locked(coord::kLeaseRequest,
                            coord::encode_lease_request(m), reply)) {
      continue;
    }
    if (reply.type != coord::kLeaseGrant) {
      im.note_failure_locked();  // Error frame: re-handshake via thread
      continue;
    }
    coord::LeaseGrantMsg g;
    if (!coord::decode_lease_grant(reply.payload, g)) {
      im.note_failure_locked();
      continue;
    }
    im.absorb_sync_locked(g.sync);
    if (g.stop) {
      im.stop_campaign = true;
      im.cv.notify_all();
      return 0;
    }
    if (g.quota > 0) {
      im.leased = g.quota;
      continue;  // consumed on the next pass
    }
    im.cv.wait_for(lock,
                   std::chrono::milliseconds(std::max(
                       g.wait_ms, std::max(10, im.opts.lease_wait_poll_ms))));
  }
}

void ShardLink::report(const WorkDelta& delta) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  const bool coverage_changed = delta.covered.size() != im.snap.covered.size();
  const bool bugs_changed = delta.bugs.size() != im.snap.bugs.size();
  im.snap.iterations =
      std::max(im.snap.iterations, delta.iterations_completed);
  coord::ShardTelemetry& t = im.snap.telemetry;
  t.valid = true;
  t.elapsed_us = delta.elapsed_us;
  t.iterations = delta.iterations_completed;
  t.covered = static_cast<std::int64_t>(delta.covered.size());
  t.frontier_depth = delta.frontier_depth;
  t.interleavings_pending = delta.interleavings_pending;
  t.solver_sat = delta.solver_sat;
  t.solver_unsat = delta.solver_unsat;
  t.solver_budget = delta.solver_budget;
  t.exec_us = delta.exec_us;
  t.solve_us = delta.solve_us;
  im.snap.covered = delta.covered;
  im.snap.iseen = delta.interleaving_seen;
  im.snap.bugs = delta.bugs;
  im.snap.final_report = im.snap.final_report || delta.final_report;
  // The ledger render is the expensive part: refresh it only when the
  // upload would actually carry news (and always on the final flush).  It
  // must be evaluated HERE, on the engine's thread — the background thread
  // retransmits the stored string, never the closure.
  if (delta.ledger_blob &&
      (coverage_changed || bugs_changed || delta.final_report ||
       !im.snap.has_data)) {
    im.snap.ledger_blob = delta.ledger_blob();
  }
  im.snap.has_data = true;
  ++im.unreported;
  if (im.connected_flag &&
      (delta.final_report || coverage_changed || bugs_changed ||
       im.unreported >= std::max(1, im.opts.report_every) ||
       im.leased == 0)) {
    (void)im.transmit_locked();
  }
}

std::vector<sym::BranchId> ShardLink::take_remote_coverage() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return std::move(impl_->remote_covered);
}

std::vector<std::uint64_t> ShardLink::take_remote_interleavings() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return std::move(impl_->remote_iseen);
}

bool ShardLink::connected() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->connected_flag;
}

bool ShardLink::standalone() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->degraded && !impl_->connected_flag;
}

bool ShardLink::stopped() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stop_campaign;
}

std::string ShardLink::key() const { return impl_->key; }

#else  // !COMPI_SERVE_POSIX — inert stub: campaigns run standalone

struct ShardLink::Impl {
  std::string key;
};

ShardLink::ShardLink(ShardLinkOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->key = options.name + "@0";
}
ShardLink::~ShardLink() = default;
bool ShardLink::start() { return false; }
void ShardLink::finish() {}
int ShardLink::acquire(int wanted) { return wanted; }
void ShardLink::report(const WorkDelta&) {}
std::vector<sym::BranchId> ShardLink::take_remote_coverage() { return {}; }
std::vector<std::uint64_t> ShardLink::take_remote_interleavings() {
  return {};
}
bool ShardLink::connected() const { return false; }
bool ShardLink::standalone() const { return true; }
bool ShardLink::stopped() const { return false; }
std::string ShardLink::key() const { return impl_->key; }

#endif  // COMPI_SERVE_POSIX

}  // namespace compi
