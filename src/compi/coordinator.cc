#include "compi/coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "compi/checkpoint.h"
#include "compi/coord_protocol.h"
#include "compi/coverage.h"
#include "compi/driver_internal.h"
#include "compi/ledger.h"
#include "compi/session.h"
#include "obs/diagnosis.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "serve/control_plane.h"
#include "serve/frame.h"
#include "serve/msg_server.h"

namespace compi {

namespace {

using Clock = std::chrono::steady_clock;

/// One outstanding lease (the in-memory form of ckpt::CoordLease plus its
/// deadline, which is never persisted — restored leases are reclaimed).
struct LiveLease {
  std::string shard;
  int remaining = 0;
  Clock::time_point deadline;
};

/// One per-shard telemetry reading in the coordinator-relative clock; the
/// fleet view derives live rates and lag sparklines from a short ring of
/// these.
struct FleetSample {
  double at = 0.0;  ///< coordinator elapsed seconds at receipt
  std::int64_t iterations = 0;
  std::int64_t covered = 0;
};

/// Telemetry samples retained per shard (~2 minutes at 1 Hz deltas).
constexpr std::size_t kFleetSampleCap = 128;

struct ShardState {
  std::string name;   ///< display name (key without the token)
  int ordinal = 0;
  bool connected = false;
  std::uint64_t conn = 0;
  std::int64_t iterations_completed = 0;
  std::size_t covered_cursor = 0;
  std::size_t iseen_cursor = 0;
  Clock::time_point last_seen;
  /// Latest snapshot piggybacked on this shard's deltas/heartbeats
  /// (valid=false until the first frame carrying one arrives).
  coord::ShardTelemetry telemetry;
  std::deque<FleetSample> samples;
};

[[nodiscard]] std::int64_t wall_clock_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Iterations/second over the shard's retained sample window; 0 until two
/// samples with distinct timestamps exist.
[[nodiscard]] double shard_rate(const ShardState& sh) {
  if (sh.samples.size() < 2) return 0.0;
  const FleetSample& a = sh.samples.front();
  const FleetSample& b = sh.samples.back();
  const double dt = b.at - a.at;
  if (dt <= 0.0) return 0.0;
  return static_cast<double>(b.iterations - a.iterations) / dt;
}

}  // namespace

struct Coordinator::Impl {
  TargetInfo target;
  CoordinatorOptions opts;

  mutable std::mutex mu;
  std::condition_variable cv;

  // Merged global state (guarded by mu).
  CoverageTracker coverage;
  std::vector<sym::BranchId> covered_log;  ///< append order, cursor space
  std::unordered_set<std::uint64_t> iseen;
  std::vector<std::uint64_t> iseen_log;
  std::vector<BugRecord> bugs;
  CoverageLedger ledger;

  // Lease and shard bookkeeping (guarded by mu).
  std::int64_t completed = 0;
  std::uint64_t next_lease_id = 1;
  int next_ordinal = 0;
  std::map<std::uint64_t, LiveLease> leases;
  std::map<std::string, ShardState> shards;  ///< by shard key
  std::unordered_map<std::uint64_t, std::string> conn_to_shard;

  // Accounting surfaced through the accessors and /metrics.
  std::size_t joined = 0;
  std::size_t lost = 0;
  std::size_t reclaimed = 0;

  // Persistence + observability.
  std::unique_ptr<SessionWriter> session;
  obs::Journal journal;
  std::shared_ptr<obs::StatusBoard> board;
  serve::MsgServer server;
  serve::ControlPlane control_plane;
  Clock::time_point start_time = Clock::now();
  int deltas_since_checkpoint = 0;
  Clock::time_point last_checkpoint = Clock::now();
  bool dirty = false;

  /// Fleet stall diagnosis, fed ~1 Hz from on_tick (declared after the
  /// journal it writes transitions into).
  obs::DiagnosisEngine diagnosis_engine{&journal};
  Clock::time_point last_diagnosis = Clock::now();

  obs::Counter& m_joined = obs::registry().counter(
      "compi_shards_joined_total", "Shard join handshakes accepted");
  obs::Counter& m_lost = obs::registry().counter(
      "compi_shards_lost_total",
      "Shards declared lost (broken connection or missed heartbeats)");
  obs::Counter& m_reclaimed = obs::registry().counter(
      "compi_leases_reclaimed_total",
      "Leases expired or reclaimed from lost shards");
  obs::Gauge& m_connected = obs::registry().gauge(
      "compi_shards_connected", "Shards currently connected");
  obs::Gauge& m_completed = obs::registry().gauge(
      "compi_coord_iterations_completed",
      "Global iterations merged across all shards");

  Impl(const TargetInfo& t, CoordinatorOptions o)
      : target(t),
        opts(std::move(o)),
        coverage(*t.table),
        ledger(*t.table) {}

  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_time).count();
  }

  [[nodiscard]] std::int64_t outstanding_locked() const {
    std::int64_t sum = 0;
    for (const auto& [id, l] : leases) sum += l.remaining;
    return sum;
  }

  [[nodiscard]] bool done_locked() const {
    return completed >= opts.budget;
  }

  /// Per-shard heartbeat gauge, named by the shard's display name
  /// (labeled_name escapes it — shard names are operator-chosen strings).
  void touch_heartbeat_gauge(const ShardState& sh) {
    obs::registry()
        .gauge(obs::labeled_name("compi_shard_last_heartbeat_seconds",
                                 "shard", sh.name),
               "Coordinator-relative time of each shard's last frame")
        .set(static_cast<std::int64_t>(elapsed()));
  }

  /// Absorbs a telemetry snapshot piggybacked on a delta or heartbeat:
  /// latest reading, the rate-ring sample, and the shard-labeled gauges.
  void note_telemetry_locked(ShardState& sh,
                             const coord::ShardTelemetry& t) {
    if (!t.valid) return;
    sh.telemetry = t;
    sh.samples.push_back(FleetSample{elapsed(), t.iterations, t.covered});
    if (sh.samples.size() > kFleetSampleCap) sh.samples.pop_front();
    auto& reg = obs::registry();
    reg.gauge(obs::labeled_name("compi_shard_iterations", "shard", sh.name),
              "Iterations completed per shard (self-reported)")
        .set(t.iterations);
    reg.gauge(
           obs::labeled_name("compi_shard_covered_branches", "shard",
                             sh.name),
           "Covered branches per shard (self-reported, pre-merge)")
        .set(t.covered);
    reg.gauge(obs::labeled_name("compi_shard_frontier_depth", "shard",
                                sh.name),
              "Negation frontier depth per shard (self-reported)")
        .set(t.frontier_depth);
  }

  /// Aggregated fleet view for the stall classifier.  frontier_depth stays
  /// -1 (unknown) until some shard reports telemetry — a coordinator in
  /// front of telemetry-less shards must not read as frontier-starved.
  [[nodiscard]] obs::DiagnosisInput diagnosis_input_locked() const {
    obs::DiagnosisInput in;
    in.elapsed_seconds = elapsed();
    in.plateau_window_seconds = opts.stall_window_seconds;
    in.shards_joined = static_cast<std::int64_t>(joined);
    in.leases_reclaimed = static_cast<std::int64_t>(reclaimed);
    const auto now = Clock::now();
    for (const auto& [key, sh] : shards) {
      if (sh.telemetry.valid) {
        if (in.frontier_depth < 0) in.frontier_depth = 0;
        in.frontier_depth += sh.telemetry.frontier_depth;
        in.interleavings_pending += sh.telemetry.interleavings_pending;
        in.solver_sat += sh.telemetry.solver_sat;
        in.solver_unsat += sh.telemetry.solver_unsat;
        in.solver_budget += sh.telemetry.solver_budget;
      }
      obs::ShardProgress p;
      p.name = sh.name;
      p.rate = shard_rate(sh);
      p.connected = sh.connected;
      p.since_last_seen =
          std::chrono::duration<double>(now - sh.last_seen).count();
      in.shards.push_back(std::move(p));
    }
    return in;
  }

  /// Re-runs the classifier (at most ~1 Hz unless forced) and republishes
  /// the verdict on the status board.
  void update_diagnosis_locked(bool force) {
    const auto now = Clock::now();
    if (!force && now - last_diagnosis < std::chrono::seconds(1)) return;
    last_diagnosis = now;
    const obs::Diagnosis diag = diagnosis_engine.update(
        diagnosis_input_locked(),
        static_cast<std::int64_t>(coverage.covered_branches()),
        static_cast<int>(std::min<std::int64_t>(completed, INT32_MAX)));
    if (board != nullptr) {
      board->set_diagnosis(obs::to_string(diag.kind), diag.detail,
                           diag.stalled_seconds);
    }
  }

  /// The /fleet document: coordinator totals plus one nested object per
  /// shard, in the same flat JSON dialect as /status (no arrays) so
  /// `compi top --fleet` parses it with the journal's object parser.
  [[nodiscard]] std::string fleet_json_locked() const {
    std::string out;
    obs::JsonWriter w(out);
    w.field("budget", opts.budget);
    w.field("completed", completed);
    w.field("elapsed_seconds", elapsed());
    w.field("shards_connected",
            static_cast<std::int64_t>(connected_count_locked()));
    w.field("shards_joined", static_cast<std::int64_t>(joined));
    w.field("shards_lost", static_cast<std::int64_t>(lost));
    w.field("leases_reclaimed", static_cast<std::int64_t>(reclaimed));
    w.field("covered_branches",
            static_cast<std::int64_t>(coverage.covered_branches()));
    w.field("bugs", static_cast<std::int64_t>(bugs.size()));
    const obs::Diagnosis& diag = diagnosis_engine.current();
    w.field("diagnosis_kind", obs::to_string(diag.kind));
    w.field("diagnosis_detail", diag.detail);
    const auto now = Clock::now();
    // Stable order: by join ordinal, so shard_N indexes don't shuffle
    // between polls.
    std::vector<const ShardState*> ordered;
    ordered.reserve(shards.size());
    for (const auto& [key, sh] : shards) ordered.push_back(&sh);
    std::sort(ordered.begin(), ordered.end(),
              [](const ShardState* a, const ShardState* b) {
                return a->ordinal < b->ordinal;
              });
    for (std::size_t i = 0; i < ordered.size(); ++i) {
      const ShardState& sh = *ordered[i];
      std::int64_t lease_count = 0;
      std::int64_t lease_remaining = 0;
      for (const auto& [id, l] : leases) {
        // Lease keys are full shard keys; resolve through the map to
        // compare against this shard.
        const auto it = shards.find(l.shard);
        if (it != shards.end() && &it->second == &sh) {
          ++lease_count;
          lease_remaining += l.remaining;
        }
      }
      w.begin_object("shard_" + std::to_string(i));
      w.field("name", sh.name);
      w.field("ordinal", static_cast<std::int64_t>(sh.ordinal));
      w.field_bool("connected", sh.connected);
      w.field("since_last_seen",
              std::chrono::duration<double>(now - sh.last_seen).count());
      // Prefer the telemetry snapshot (piggybacked at heartbeat cadence)
      // over the delta-merged count: the dashboard should show where the
      // shard IS, not where its last merge left it.
      w.field("iterations", sh.telemetry.valid ? sh.telemetry.iterations
                                               : sh.iterations_completed);
      w.field("rate", shard_rate(sh));
      w.field("leases", lease_count);
      w.field("lease_remaining", lease_remaining);
      w.field_bool("telemetry", sh.telemetry.valid);
      if (sh.telemetry.valid) {
        const coord::ShardTelemetry& t = sh.telemetry;
        w.field("covered", t.covered);
        w.field("frontier_depth", t.frontier_depth);
        w.field("interleavings_pending", t.interleavings_pending);
        w.field("solver_sat", t.solver_sat);
        w.field("solver_unsat", t.solver_unsat);
        w.field("solver_budget", t.solver_budget);
        w.field("exec_us", t.exec_us);
        w.field("solve_us", t.solve_us);
      }
      // Lag sparkline data: "elapsed:iterations" pairs, the same encoding
      // trick the status heartbeat uses for its coverage timeline.
      std::string spark;
      for (const FleetSample& s : sh.samples) {
        if (!spark.empty()) spark.push_back(' ');
        spark += std::to_string(static_cast<std::int64_t>(s.at));
        spark.push_back(':');
        spark += std::to_string(s.iterations);
      }
      w.field("timeline", spark);
      w.end_object();
    }
    w.finish();
    return out;
  }

  void update_board_locked() {
    if (board == nullptr) return;
    board->record_iteration(
        static_cast<int>(std::min<std::int64_t>(completed, INT32_MAX)),
        coverage.covered_branches(), bugs.size(), elapsed(), 0, 0, "ok", 0);
  }

  /// Renews every lease held by `key` (any frame from a shard counts as a
  /// heartbeat) and stamps its last-seen time.
  void renew_locked(ShardState& sh, const std::string& key) {
    sh.last_seen = Clock::now();
    const auto deadline =
        sh.last_seen + std::chrono::milliseconds(opts.lease_ttl_ms);
    for (auto& [id, l] : leases) {
      if (l.shard == key) l.deadline = deadline;
    }
    touch_heartbeat_gauge(sh);
  }

  void reclaim_lease_locked(std::uint64_t id, const char* reason) {
    const auto it = leases.find(id);
    if (it == leases.end()) return;
    obs::instant(obs::Cat::kCoord, "lease_reclaimed", "lease",
                 static_cast<std::int64_t>(id));
    obs::JournalEvent(journal, "lease_reclaimed",
                      static_cast<int>(std::min<std::int64_t>(completed,
                                                              INT32_MAX)))
        .num("lease", static_cast<std::int64_t>(id))
        .num("remaining", it->second.remaining)
        .str("shard", it->second.shard)
        .str("reason", reason);
    leases.erase(it);
    ++reclaimed;
    m_reclaimed.inc();
    dirty = true;
    cv.notify_all();
  }

  void reclaim_shard_leases_locked(const std::string& key,
                                   const char* reason) {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, l] : leases) {
      if (l.shard == key) ids.push_back(id);
    }
    for (std::uint64_t id : ids) reclaim_lease_locked(id, reason);
  }

  void mark_lost_locked(ShardState& sh, const std::string& key,
                        const char* reason) {
    if (!sh.connected) return;
    sh.connected = false;
    sh.conn = 0;
    ++lost;
    m_lost.inc();
    m_connected.set(static_cast<std::int64_t>(connected_count_locked()));
    obs::JournalEvent(journal, "shard_lost",
                      static_cast<int>(std::min<std::int64_t>(completed,
                                                              INT32_MAX)))
        .str("shard", key)
        .str("reason", reason);
    reclaim_shard_leases_locked(key, reason);
  }

  [[nodiscard]] std::size_t connected_count_locked() const {
    std::size_t n = 0;
    for (const auto& [key, sh] : shards) n += sh.connected ? 1 : 0;
    return n;
  }

  /// Covered-log suffix past the shard's cursors; advances the cursors.
  [[nodiscard]] coord::CoverageSync sync_for_locked(ShardState& sh) {
    obs::ObsSpan span(obs::Cat::kCoord, "broadcast", "covered_from",
                      static_cast<std::int64_t>(sh.covered_cursor));
    coord::CoverageSync sync;
    sync.completed = completed;
    sync.budget = opts.budget;
    sync.covered.assign(covered_log.begin() +
                            static_cast<std::ptrdiff_t>(sh.covered_cursor),
                        covered_log.end());
    sh.covered_cursor = covered_log.size();
    sync.interleaving_seen.assign(
        iseen_log.begin() + static_cast<std::ptrdiff_t>(sh.iseen_cursor),
        iseen_log.end());
    sh.iseen_cursor = iseen_log.size();
    return sync;
  }

  void merge_delta_locked(ShardState& sh, const std::string& key,
                          const coord::DeltaMsg& m) {
    obs::ObsSpan span(obs::Cat::kCoord, "merge_delta", "iterations",
                      m.iterations);
    // Cumulative iteration cursor: max() makes replays idempotent.
    const std::int64_t increment =
        std::max<std::int64_t>(0, m.iterations - sh.iterations_completed);
    sh.iterations_completed =
        std::max(sh.iterations_completed, m.iterations);
    completed += increment;
    m_completed.set(completed);

    // Consume quota from the shard's leases, oldest grant first.
    std::int64_t consume = increment;
    std::vector<std::uint64_t> drained;
    for (auto& [id, l] : leases) {
      if (consume <= 0) break;
      if (l.shard != key) continue;
      const int take =
          static_cast<int>(std::min<std::int64_t>(consume, l.remaining));
      l.remaining -= take;
      consume -= take;
      if (l.remaining <= 0) drained.push_back(id);
    }
    for (std::uint64_t id : drained) leases.erase(id);

    rt::CoverageBitmap bm(target.table->num_branches());
    for (sym::BranchId b : m.covered) {
      if (static_cast<std::size_t>(b) >= target.table->num_branches()) {
        continue;
      }
      // bm doubles as the within-delta dedup: a repeated id must land in
      // the broadcast log once, or every shard cursor replays it forever.
      if (!coverage.branch_covered(b) && !bm.covered(b)) {
        covered_log.push_back(b);
      }
      bm.mark(b);
    }
    coverage.merge(bm);
    for (std::uint64_t h : m.interleaving_seen) {
      if (iseen.insert(h).second) iseen_log.push_back(h);
    }

    for (const BugRecord& b : m.bugs) {
      const std::string sig = detail::bug_signature(b.message);
      const auto it = std::find_if(
          bugs.begin(), bugs.end(), [&](const BugRecord& have) {
            return detail::bug_signature(have.message) == sig;
          });
      if (it == bugs.end()) {
        bugs.push_back(b);
        obs::JournalEvent(journal, "bug",
                          static_cast<int>(std::min<std::int64_t>(
                              completed, INT32_MAX)))
            .str("shard", key)
            .str("message", b.message);
      } else {
        it->occurrences = std::max(it->occurrences, b.occurrences);
      }
    }

    if (!m.ledger_blob.empty()) {
      std::istringstream is(m.ledger_blob);
      (void)ledger.merge(is);
    }

    note_telemetry_locked(sh, m.telemetry);
    renew_locked(sh, key);
    update_board_locked();
    update_diagnosis_locked(/*force=*/false);
    ++deltas_since_checkpoint;
    dirty = true;
    journal.flush();
    cv.notify_all();
  }

  // ---- frame handlers (message-server thread) ----

  serve::WireFrame error_reply(const std::string& reason) {
    return serve::WireFrame{coord::kError, reason};
  }

  serve::WireFrame on_frame(std::uint64_t conn,
                            const serve::WireFrame& frame) {
    std::lock_guard<std::mutex> lock(mu);
    switch (frame.type) {
      case coord::kHello: {
        coord::HelloMsg m;
        if (!coord::decode_hello(frame.payload, m)) {
          return error_reply("bad hello");
        }
        const std::string key = coord::shard_key(m.name, m.token);
        ShardState& sh = shards[key];
        const bool fresh = sh.last_seen == Clock::time_point{};
        if (fresh) {
          sh.name = m.name;
          sh.ordinal = next_ordinal++;
        }
        sh.connected = true;
        sh.conn = conn;
        conn_to_shard[conn] = key;
        ++joined;
        m_joined.inc();
        m_connected.set(
            static_cast<std::int64_t>(connected_count_locked()));
        obs::instant(obs::Cat::kCoord, "shard_joined", "ordinal",
                     sh.ordinal);
        // Both sides' wall clocks at the handshake: `compi trace-merge`
        // derives per-shard clock drift from these to align the merged
        // timeline.
        obs::JournalEvent(journal, "shard_joined",
                          static_cast<int>(std::min<std::int64_t>(
                              completed, INT32_MAX)))
            .str("shard", key)
            .num("ordinal", sh.ordinal)
            .boolean("rejoin", !fresh)
            .num("shard_wall_us", m.wall_us)
            .num("coord_wall_us", wall_clock_us());
        journal.flush();
        // Welcome is a full resync: reset the cursors so the sync below
        // carries the complete covered/seen logs.  This is what makes a
        // coordinator restart (fresh logs, restored sets) transparent.
        sh.covered_cursor = 0;
        sh.iseen_cursor = 0;
        renew_locked(sh, key);
        coord::WelcomeMsg w;
        w.ordinal = sh.ordinal;
        w.sync = sync_for_locked(sh);
        dirty = true;
        return serve::WireFrame{coord::kWelcome, coord::encode_welcome(w)};
      }
      case coord::kLeaseRequest: {
        coord::LeaseRequestMsg m;
        if (!coord::decode_lease_request(frame.payload, m)) {
          return error_reply("bad lease_request");
        }
        const auto it = shards.find(m.shard);
        if (it == shards.end()) return error_reply("unknown shard");
        ShardState& sh = it->second;
        obs::ObsSpan span(obs::Cat::kCoord, "lease_grant");
        renew_locked(sh, m.shard);
        coord::LeaseGrantMsg g;
        if (done_locked()) {
          g.stop = true;
        } else {
          const std::int64_t avail =
              opts.budget - completed - outstanding_locked();
          if (avail <= 0) {
            g.wait_ms = std::max(50, opts.tick_ms * 4);
          } else {
            g.lease_id = next_lease_id++;
            g.quota = static_cast<int>(std::min<std::int64_t>(
                avail, std::max(1, opts.lease_quota)));
            leases[g.lease_id] = LiveLease{
                m.shard, g.quota,
                Clock::now() +
                    std::chrono::milliseconds(opts.lease_ttl_ms)};
            dirty = true;
          }
        }
        g.sync = sync_for_locked(sh);
        return serve::WireFrame{coord::kLeaseGrant,
                                coord::encode_lease_grant(g)};
      }
      case coord::kDelta: {
        coord::DeltaMsg m;
        if (!coord::decode_delta(frame.payload, m)) {
          return error_reply("bad delta");
        }
        const auto it = shards.find(m.shard);
        if (it == shards.end()) return error_reply("unknown shard");
        merge_delta_locked(it->second, m.shard, m);
        coord::AckMsg a;
        a.stop = done_locked();
        a.sync = sync_for_locked(it->second);
        return serve::WireFrame{coord::kAck, coord::encode_ack(a)};
      }
      case coord::kHeartbeat: {
        coord::HeartbeatMsg m;
        if (!coord::decode_heartbeat(frame.payload, m)) {
          return error_reply("bad heartbeat");
        }
        const auto it = shards.find(m.shard);
        if (it == shards.end()) return error_reply("unknown shard");
        note_telemetry_locked(it->second, m.telemetry);
        renew_locked(it->second, m.shard);
        coord::AckMsg a;
        a.stop = done_locked();
        a.sync = sync_for_locked(it->second);
        return serve::WireFrame{coord::kAck, coord::encode_ack(a)};
      }
      case coord::kFinished: {
        coord::HeartbeatMsg m;  // Finished carries the heartbeat payload
        if (!coord::decode_heartbeat(frame.payload, m)) {
          return error_reply("bad finished");
        }
        const auto it = shards.find(m.shard);
        if (it != shards.end()) {
          // Clean departure: return unreported quota to the pool without
          // declaring the shard lost.
          reclaim_shard_leases_locked(m.shard, "finished");
          it->second.connected = false;
          conn_to_shard.erase(it->second.conn);
          it->second.conn = 0;
          m_connected.set(
              static_cast<std::int64_t>(connected_count_locked()));
        }
        coord::AckMsg a;
        a.stop = done_locked();
        if (it != shards.end()) a.sync = sync_for_locked(it->second);
        return serve::WireFrame{coord::kAck, coord::encode_ack(a)};
      }
      default:
        return error_reply("unexpected frame");
    }
  }

  void on_disconnect(std::uint64_t conn) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = conn_to_shard.find(conn);
    if (it == conn_to_shard.end()) return;
    const std::string key = it->second;
    conn_to_shard.erase(it);
    const auto sit = shards.find(key);
    if (sit != shards.end() && sit->second.conn == conn) {
      mark_lost_locked(sit->second, key, "disconnect");
      journal.flush();
    }
  }

  void on_tick() {
    std::lock_guard<std::mutex> lock(mu);
    const auto now = Clock::now();
    // Expired leases (missed heartbeats) and silent shards.
    std::vector<std::uint64_t> expired;
    for (const auto& [id, l] : leases) {
      if (l.deadline < now) expired.push_back(id);
    }
    for (std::uint64_t id : expired) reclaim_lease_locked(id, "expired");
    const auto silent_cutoff =
        now - std::chrono::milliseconds(opts.lease_ttl_ms);
    for (auto& [key, sh] : shards) {
      if (sh.connected && sh.last_seen < silent_cutoff) {
        conn_to_shard.erase(sh.conn);
        mark_lost_locked(sh, key, "missed_heartbeats");
      }
    }
    if (!expired.empty()) journal.flush();
    update_diagnosis_locked(/*force=*/false);
    maybe_checkpoint_locked(false);
  }

  // ---- persistence ----

  [[nodiscard]] ckpt::CampaignCheckpoint snapshot_locked() const {
    ckpt::CampaignCheckpoint c;
    c.next_iteration =
        static_cast<int>(std::min<std::int64_t>(completed, INT32_MAX));
    c.covered = covered_log;
    c.bugs = bugs;
    c.interleaving_seen = iseen_log;
    std::sort(c.interleaving_seen.begin(), c.interleaving_seen.end());
    {
      std::ostringstream os;
      ledger.write(os);
      c.ledger_state = os.str();
    }
    c.is_coordinator = true;
    c.coord_budget = opts.budget;
    c.coord_completed = completed;
    c.coord_next_lease_id = next_lease_id;
    for (const auto& [id, l] : leases) {
      c.coord_leases.push_back(ckpt::CoordLease{id, l.shard, l.remaining});
    }
    for (const auto& [key, sh] : shards) {
      c.coord_shards.push_back(ckpt::CoordShardCursor{
          key, sh.iterations_completed, sh.covered_cursor});
    }
    return c;
  }

  void maybe_checkpoint_locked(bool force) {
    if (session == nullptr || !dirty) return;
    const bool due =
        force ||
        deltas_since_checkpoint >= opts.checkpoint_every_deltas ||
        Clock::now() - last_checkpoint > std::chrono::seconds(1);
    if (!due) return;
    session->write_checkpoint(snapshot_locked());
    deltas_since_checkpoint = 0;
    last_checkpoint = Clock::now();
    dirty = false;
  }

  /// Restores the snapshot's state; its commit point, or nullopt when
  /// there is no coordinator snapshot to continue from.
  std::optional<ckpt::StreamLengths> restore_locked() {
    const auto c = read_checkpoint(opts.log_dir);
    if (!c || !c->is_coordinator) return std::nullopt;
    completed = c->coord_completed;
    m_completed.set(completed);
    next_lease_id = c->coord_next_lease_id;
    rt::CoverageBitmap bm(target.table->num_branches());
    for (sym::BranchId b : c->covered) {
      if (static_cast<std::size_t>(b) >= target.table->num_branches()) {
        continue;
      }
      covered_log.push_back(b);
      bm.mark(b);
    }
    coverage.merge(bm);
    for (std::uint64_t h : c->interleaving_seen) {
      if (iseen.insert(h).second) iseen_log.push_back(h);
    }
    bugs = c->bugs;
    if (!c->ledger_state.empty()) {
      std::istringstream is(c->ledger_state);
      if (!ledger.read(is)) ledger = CoverageLedger(*target.table);
    }
    for (const ckpt::CoordShardCursor& s : c->coord_shards) {
      ShardState sh;
      sh.name = s.shard.substr(0, s.shard.find('@'));
      sh.ordinal = next_ordinal++;
      sh.iterations_completed = s.iterations_completed;
      // Cursors index the PREVIOUS process's covered log; Welcome resyncs
      // in full, so they restart at zero here.
      sh.covered_cursor = 0;
      sh.iseen_cursor = 0;
      shards.emplace(s.shard, std::move(sh));
    }
    // Restored leases belonged to connections that died with the old
    // process: reclaim them all (idempotent re-execution makes this safe).
    for (const ckpt::CoordLease& l : c->coord_leases) {
      leases[l.id] =
          LiveLease{l.shard, l.remaining, Clock::time_point{}};
      reclaim_lease_locked(l.id, "coordinator_restart");
    }
    dirty = true;
    return c->streams;
  }

  void finalize() {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& [key, sh] : shards) {
      if (sh.connected) mark_lost_locked(sh, key, "coordinator_stop");
    }
    update_diagnosis_locked(/*force=*/true);
    dirty = true;
    maybe_checkpoint_locked(true);
    if (opts.trace && !opts.log_dir.empty()) {
      std::ofstream out(std::filesystem::path(opts.log_dir) / "trace.json");
      obs::tracer().write_chrome_json(out);
    }
    if (session != nullptr) {
      CampaignResult result;
      result.bugs = bugs;
      result.covered_branches = coverage.covered_branches();
      result.reachable_branches = coverage.reachable_branches();
      result.total_branches = coverage.total_branches();
      result.coverage_rate = coverage.rate();
      result.function_coverage = coverage.per_function();
      result.total_seconds = elapsed();
      session->write_summary(result);
      session->write_ledger(ledger, *target.table);
    }
    journal.flush();
    journal.close();
  }
};

Coordinator::Coordinator(const TargetInfo& target, CoordinatorOptions options)
    : impl_(std::make_unique<Impl>(target, std::move(options))) {}

Coordinator::~Coordinator() { stop(); }

bool Coordinator::start() {
  Impl& im = *impl_;
  if (im.server.running()) return false;
  if (im.opts.trace) {
    obs::tracer().configure(
        static_cast<std::size_t>(std::max(1, im.opts.trace_buffer_kb)));
    obs::tracer().set_enabled(true);
  }
  if (!im.opts.log_dir.empty()) {
    im.session = std::make_unique<SessionWriter>(im.opts.log_dir, 0);
    std::optional<ckpt::StreamLengths> restored;
    if (im.opts.resume) {
      std::lock_guard<std::mutex> lock(im.mu);
      restored = im.restore_locked();
    }
    obs::Journal* const journal = im.opts.journal ? &im.journal : nullptr;
    if (restored) {
      const std::string verdict =
          im.session->resume_iterations(*restored, {}, journal);
      if (const auto kind = obs::stall_kind_from_string(verdict)) {
        std::lock_guard<std::mutex> lock(im.mu);
        im.diagnosis_engine.resume(*kind);
      }
    } else {
      im.session->begin_iterations({}, journal);
    }
  }

  serve::MsgServer::Callbacks cb;
  cb.on_frame = [im = impl_.get()](std::uint64_t conn,
                                   const serve::WireFrame& f) {
    return im->on_frame(conn, f);
  };
  cb.on_disconnect = [im = impl_.get()](std::uint64_t conn) {
    im->on_disconnect(conn);
  };
  cb.on_tick = [im = impl_.get()] { im->on_tick(); };
  im.server.set_callbacks(std::move(cb));
  if (!im.server.start(im.opts.port, coord::kCoordinatorAccepts,
                       im.opts.tick_ms)) {
    return false;
  }

  if (im.opts.serve_port >= 0) {
    im.board = std::make_shared<obs::StatusBoard>(
        1, static_cast<int>(
               std::min<std::int64_t>(im.opts.budget, INT32_MAX)));
    {
      std::lock_guard<std::mutex> lock(im.mu);
      im.update_board_locked();
    }
    serve::ControlPlaneConfig cp;
    cp.port = im.opts.serve_port;
    cp.registry = &obs::registry();
    cp.journal = &im.journal;
    cp.status = [board = im.board] { return board->snapshot(); };
    cp.fleet = [im = impl_.get()] {
      std::lock_guard<std::mutex> lock(im->mu);
      return im->fleet_json_locked();
    };
    // /healthz carries the real fleet verdict: 503 once the diagnosis
    // engine classifies the merged coverage curve as stalled (a finished
    // campaign is healthy, not stalled).
    cp.healthy = [im = impl_.get()]() -> std::pair<bool, std::string> {
      std::lock_guard<std::mutex> lock(im->mu);
      std::ostringstream os;
      os << "coordinating: " << im->completed << '/' << im->opts.budget
         << " iterations, " << im->connected_count_locked() << " shards";
      if (im->done_locked()) {
        os << "; budget complete";
        return {true, os.str()};
      }
      const obs::Diagnosis& diag = im->diagnosis_engine.current();
      if (diag.kind == obs::StallKind::kProgressing) {
        return {true, os.str()};
      }
      os << "; " << diag.detail;
      return {false, os.str()};
    };
    if (im.control_plane.start(std::move(cp)) && im.board != nullptr) {
      im.board->set_serve_port(im.control_plane.port());
    }
  }
  return true;
}

void Coordinator::stop() {
  Impl& im = *impl_;
  if (!im.server.running()) return;
  im.control_plane.stop();
  im.server.stop();  // drains final on_disconnects on the server thread
  im.finalize();
  im.cv.notify_all();
}

bool Coordinator::running() const { return impl_->server.running(); }

int Coordinator::port() const { return impl_->server.port(); }

int Coordinator::http_port() const {
  return impl_->control_plane.running() ? impl_->control_plane.port() : -1;
}

bool Coordinator::done() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->done_locked();
}

bool Coordinator::wait_until_done(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  const auto pred = [this] { return impl_->done_locked(); };
  if (timeout_seconds <= 0.0) {
    impl_->cv.wait(lock, pred);
  } else {
    impl_->cv.wait_for(lock,
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_seconds)),
                       pred);
  }
  return impl_->done_locked();
}

std::int64_t Coordinator::completed() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->completed;
}

std::int64_t Coordinator::budget() const { return impl_->opts.budget; }

std::vector<sym::BranchId> Coordinator::covered_ids() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<sym::BranchId> out = impl_->covered_log;
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BugRecord> Coordinator::bugs() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->bugs;
}

std::size_t Coordinator::shards_joined() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->joined;
}

std::size_t Coordinator::shards_lost() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->lost;
}

std::size_t Coordinator::leases_reclaimed() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->reclaimed;
}

std::string Coordinator::fleet_json() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->fleet_json_locked();
}

std::pair<std::string, std::string> Coordinator::diagnosis() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const obs::Diagnosis& d = impl_->diagnosis_engine.current();
  return {obs::to_string(d.kind), d.detail};
}

}  // namespace compi
