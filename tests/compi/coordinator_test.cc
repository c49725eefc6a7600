// Coordinator lease mechanics, merge idempotency, and crash durability,
// driven by a raw wire-level test shard (no ShardLink) so each frame and
// reply can be asserted exactly.
#include "compi/coordinator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compi/coord_protocol.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "serve/frame.h"
#include "serve/http.h"
#include "serve/net_util.h"
#include "tests/compi/fig2_target.h"
#include "tests/compi/session_log_util.h"

#ifdef COMPI_SERVE_POSIX

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;
using compi::testing::snapshot_text;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_coord_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::string slurp(const fs::path& file) {
  std::ifstream in(file);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Polls `pred` for up to 5 seconds.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// A hand-rolled shard client speaking raw coordinator frames, so tests
/// control exactly what goes on the wire (including rude departures).
struct TestShard {
  std::string name = "t";
  std::uint64_t token = 1;
  int fd = -1;
  serve::WireFrameReader reader{coord::kShardAccepts};

  ~TestShard() { drop(); }

  [[nodiscard]] std::string key() const {
    return coord::shard_key(name, token);
  }

  bool connect(int port) {
    drop();
    reader = serve::WireFrameReader(coord::kShardAccepts);
    fd = serve::net::connect_client("127.0.0.1:" + std::to_string(port),
                                    2000);
    return fd >= 0;
  }

  /// Abrupt close: no Finished frame — the coordinator sees a disconnect.
  void drop() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  std::optional<serve::WireFrame> transact(char type,
                                           const std::string& payload) {
    std::string out;
    serve::append_wire_frame(out, type, payload);
    if (fd < 0 || !serve::net::send_all(fd, out)) return std::nullopt;
    char buf[4096];
    for (;;) {
      if (auto f = reader.next()) return f;
      if (reader.corrupt()) return std::nullopt;
      const ssize_t n = serve::net::xrecv(fd, buf, sizeof buf);
      if (n <= 0) return std::nullopt;
      reader.feed(buf, static_cast<std::size_t>(n));
    }
  }

  std::optional<coord::WelcomeMsg> hello() {
    coord::HelloMsg m;
    m.name = name;
    m.token = token;
    const auto f = transact(coord::kHello, coord::encode_hello(m));
    coord::WelcomeMsg w;
    if (!f || f->type != coord::kWelcome ||
        !coord::decode_welcome(f->payload, w)) {
      return std::nullopt;
    }
    return w;
  }

  std::optional<coord::LeaseGrantMsg> lease() {
    coord::LeaseRequestMsg m;
    m.shard = key();
    const auto f =
        transact(coord::kLeaseRequest, coord::encode_lease_request(m));
    coord::LeaseGrantMsg g;
    if (!f || f->type != coord::kLeaseGrant ||
        !coord::decode_lease_grant(f->payload, g)) {
      return std::nullopt;
    }
    return g;
  }

  std::optional<coord::AckMsg> delta(const coord::DeltaMsg& base) {
    coord::DeltaMsg m = base;
    m.shard = key();
    const auto f = transact(coord::kDelta, coord::encode_delta(m));
    coord::AckMsg a;
    if (!f || f->type != coord::kAck || !coord::decode_ack(f->payload, a)) {
      return std::nullopt;
    }
    return a;
  }

  std::optional<coord::AckMsg> heartbeat(const coord::ShardTelemetry& t) {
    coord::HeartbeatMsg m;
    m.shard = key();
    m.telemetry = t;
    const auto f = transact(coord::kHeartbeat, coord::encode_heartbeat(m));
    coord::AckMsg a;
    if (!f || f->type != coord::kAck || !coord::decode_ack(f->payload, a)) {
      return std::nullopt;
    }
    return a;
  }
};

/// A plausible telemetry snapshot at `iterations` completed.
coord::ShardTelemetry telemetry_at(std::int64_t iterations,
                                   std::int64_t frontier) {
  coord::ShardTelemetry t;
  t.valid = true;
  t.elapsed_us = iterations * 100'000;
  t.iterations = iterations;
  t.covered = 10 + iterations;
  t.frontier_depth = frontier;
  t.solver_sat = iterations / 2;
  t.solver_unsat = 1;
  t.exec_us = iterations * 60'000;
  t.solve_us = iterations * 20'000;
  return t;
}

CoordinatorOptions fast_opts(std::int64_t budget, int quota) {
  CoordinatorOptions o;
  o.port = 0;
  o.budget = budget;
  o.lease_quota = quota;
  o.lease_ttl_ms = 10000;
  o.tick_ms = 10;
  return o;
}

TEST(Coordinator, LeaseGrantsDrainTheBudgetThenWaitThenStop) {
  Coordinator coord(fig2_target(true), fast_opts(10, 4));
  ASSERT_TRUE(coord.start());

  TestShard shard;
  ASSERT_TRUE(shard.connect(coord.port()));
  const auto welcome = shard.hello();
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->ordinal, 0);
  EXPECT_EQ(welcome->sync.budget, 10);
  EXPECT_EQ(welcome->sync.completed, 0);

  // 4 + 4 + 2 exhausts the pool; the fourth request gets a wait hint.
  const auto g1 = shard.lease();
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->quota, 4);
  EXPECT_FALSE(g1->stop);
  const auto g2 = shard.lease();
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->quota, 4);
  EXPECT_NE(g1->lease_id, g2->lease_id);
  const auto g3 = shard.lease();
  ASSERT_TRUE(g3.has_value());
  EXPECT_EQ(g3->quota, 2);
  const auto g4 = shard.lease();
  ASSERT_TRUE(g4.has_value());
  EXPECT_EQ(g4->quota, 0);
  EXPECT_FALSE(g4->stop);
  EXPECT_GT(g4->wait_ms, 0);

  // Reporting the full budget completes the campaign: the Ack says stop,
  // and so does any further lease request.
  coord::DeltaMsg d;
  d.iterations = 10;
  d.covered = {1, 2};
  const auto ack = shard.delta(d);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->stop);
  EXPECT_TRUE(coord.done());
  EXPECT_EQ(coord.completed(), 10);
  const auto g5 = shard.lease();
  ASSERT_TRUE(g5.has_value());
  EXPECT_TRUE(g5->stop);
  EXPECT_TRUE(coord.wait_until_done(1.0));
  coord.stop();
}

TEST(Coordinator, DeltaReplayIsIdempotent) {
  Coordinator coord(fig2_target(true), fast_opts(100, 8));
  ASSERT_TRUE(coord.start());

  TestShard shard;
  ASSERT_TRUE(shard.connect(coord.port()));
  ASSERT_TRUE(shard.hello().has_value());
  ASSERT_TRUE(shard.lease().has_value());

  coord::DeltaMsg d;
  d.iterations = 5;  // cumulative
  d.covered = {1, 3, 3};
  BugRecord bug;
  bug.outcome = rt::Outcome::kAssert;
  bug.message = "seeded assertion: y == 77 on the master";
  bug.occurrences = 1;
  d.bugs.push_back(bug);

  ASSERT_TRUE(shard.delta(d).has_value());
  // The identical delta again — a reconnect replay — changes nothing.
  ASSERT_TRUE(shard.delta(d).has_value());
  EXPECT_EQ(coord.completed(), 5);
  EXPECT_EQ(coord.covered_ids(), (std::vector<sym::BranchId>{1, 3}));
  ASSERT_EQ(coord.bugs().size(), 1u);

  // Progress replays as cumulative counts: 8 after 5 adds 3, never 13.
  d.iterations = 8;
  d.bugs[0].occurrences = 4;
  ASSERT_TRUE(shard.delta(d).has_value());
  EXPECT_EQ(coord.completed(), 8);
  EXPECT_EQ(coord.bugs()[0].occurrences, 4);
  coord.stop();
}

TEST(Coordinator, CoverageBroadcastReachesOtherShards) {
  Coordinator coord(fig2_target(true), fast_opts(100, 8));
  ASSERT_TRUE(coord.start());

  TestShard a, b;
  a.name = "a";
  b.name = "b";
  b.token = 2;
  ASSERT_TRUE(a.connect(coord.port()));
  ASSERT_TRUE(b.connect(coord.port()));
  ASSERT_TRUE(a.hello().has_value());
  const auto wb = b.hello();
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(wb->ordinal, 1);

  coord::DeltaMsg d;
  d.iterations = 1;
  d.covered = {7, 9};
  ASSERT_TRUE(a.delta(d).has_value());

  // B's next reply carries A's finds exactly once.
  const auto g = b.lease();
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->sync.covered, (std::vector<sym::BranchId>{7, 9}));
  const auto g2 = b.lease();
  ASSERT_TRUE(g2.has_value());
  EXPECT_TRUE(g2->sync.covered.empty());

  // A re-handshake is a FULL resync (what a coordinator restart relies on).
  ASSERT_TRUE(b.connect(coord.port()));
  const auto rejoin = b.hello();
  ASSERT_TRUE(rejoin.has_value());
  EXPECT_EQ(rejoin->ordinal, 1) << "ordinal is stable across rejoins";
  EXPECT_EQ(rejoin->sync.covered, (std::vector<sym::BranchId>{7, 9}));
  coord.stop();
}

TEST(Coordinator, DisconnectReclaimsLeasesAndJournalsTheLoss) {
  TempDir dir;
  CoordinatorOptions o = fast_opts(100, 8);
  o.log_dir = dir.path.string();
  o.journal = true;
  Coordinator coord(fig2_target(true), o);
  ASSERT_TRUE(coord.start());

  TestShard shard;
  ASSERT_TRUE(shard.connect(coord.port()));
  ASSERT_TRUE(shard.hello().has_value());
  ASSERT_TRUE(shard.lease().has_value());
  EXPECT_EQ(coord.shards_joined(), 1u);

  shard.drop();  // rude death, no Finished
  EXPECT_TRUE(eventually([&] { return coord.shards_lost() == 1; }));
  EXPECT_TRUE(eventually([&] { return coord.leases_reclaimed() == 1; }));

  // The reclaimed quota is available again to the next shard.
  TestShard next;
  next.name = "next";
  next.token = 9;
  ASSERT_TRUE(next.connect(coord.port()));
  ASSERT_TRUE(next.hello().has_value());
  const auto g = next.lease();
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->quota, 8);
  coord.stop();

  const std::string journal = slurp(dir.path / "journal.jsonl");
  EXPECT_NE(journal.find("shard_joined"), std::string::npos);
  EXPECT_NE(journal.find("shard_lost"), std::string::npos);
  EXPECT_NE(journal.find("lease_reclaimed"), std::string::npos);
}

TEST(Coordinator, SilentShardExpiresByMissedHeartbeats) {
  CoordinatorOptions o = fast_opts(100, 4);
  o.lease_ttl_ms = 150;
  Coordinator coord(fig2_target(true), o);
  ASSERT_TRUE(coord.start());

  TestShard shard;
  ASSERT_TRUE(shard.connect(coord.port()));
  ASSERT_TRUE(shard.hello().has_value());
  ASSERT_TRUE(shard.lease().has_value());

  // Keep the connection open but say nothing: the lease deadline and the
  // missed-heartbeat cutoff both pass.
  EXPECT_TRUE(eventually([&] {
    return coord.leases_reclaimed() >= 1 && coord.shards_lost() >= 1;
  }));

  // The shard is still known: a lease request after the silence renews it.
  const auto g = shard.lease();
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->quota, 4);
  coord.stop();
}

TEST(Coordinator, UnknownShardFramesAreRejected) {
  Coordinator coord(fig2_target(true), fast_opts(10, 4));
  ASSERT_TRUE(coord.start());

  TestShard shard;
  ASSERT_TRUE(shard.connect(coord.port()));
  // Lease request without a Hello handshake: an Error frame, not a crash.
  coord::LeaseRequestMsg m;
  m.shard = "ghost@1";
  const auto f =
      shard.transact(coord::kLeaseRequest, coord::encode_lease_request(m));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, coord::kError);
  coord.stop();
}

TEST(Coordinator, RestartFromCheckpointKeepsStateAndNeverDoubleCounts) {
  TempDir dir;
  CoordinatorOptions o = fast_opts(20, 4);
  o.log_dir = dir.path.string();
  o.checkpoint_every_deltas = 1;
  std::string shard_key_used;

  {
    Coordinator coord(fig2_target(true), o);
    ASSERT_TRUE(coord.start());
    TestShard shard;
    shard_key_used = shard.key();
    ASSERT_TRUE(shard.connect(coord.port()));
    ASSERT_TRUE(shard.hello().has_value());
    ASSERT_TRUE(shard.lease().has_value());
    coord::DeltaMsg d;
    d.iterations = 3;
    d.covered = {1, 2};
    BugRecord bug;
    bug.outcome = rt::Outcome::kAssert;
    bug.message = "seeded assertion: y == 77 on the master";
    d.bugs.push_back(bug);
    ASSERT_TRUE(shard.delta(d).has_value());
    ASSERT_TRUE(shard.lease().has_value());  // leave a lease outstanding
    // Wait for the periodic checkpoint, then SIMULATE kill -9: freeze the
    // on-disk state mid-run (a clean stop() would write a final snapshot,
    // which is exactly what a SIGKILL never gets to do).
    ASSERT_TRUE(eventually([&] {
      const std::string text = snapshot_text(dir.path, 0);
      return text.find("coord 1") != std::string::npos &&
             text.find("coord_counters 20 3 ") != std::string::npos;
    }));
    fs::copy(dir.path / "session.log", dir.path / "frozen.log");
    coord.stop();
  }
  fs::rename(dir.path / "frozen.log", dir.path / "session.log");

  CoordinatorOptions r = o;
  r.resume = true;
  Coordinator restarted(fig2_target(true), r);
  ASSERT_TRUE(restarted.start());
  // Confirmed state survived; the restored outstanding lease was reclaimed.
  EXPECT_EQ(restarted.completed(), 3);
  EXPECT_EQ(restarted.covered_ids(), (std::vector<sym::BranchId>{1, 2}));
  ASSERT_EQ(restarted.bugs().size(), 1u);
  EXPECT_GE(restarted.leases_reclaimed(), 1u);

  // The same shard process reconnects and replays its cumulative state:
  // 5 total after 3 already merged adds exactly 2.
  TestShard shard;
  ASSERT_EQ(shard.key(), shard_key_used);
  ASSERT_TRUE(shard.connect(restarted.port()));
  const auto welcome = shard.hello();
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->sync.covered, (std::vector<sym::BranchId>{1, 2}))
      << "the rejoin Welcome resyncs restored coverage in full";
  coord::DeltaMsg d;
  d.iterations = 5;
  d.covered = {1, 2, 4};
  BugRecord bug;
  bug.outcome = rt::Outcome::kAssert;
  bug.message = "seeded assertion: y == 77 on the master";
  d.bugs.push_back(bug);
  ASSERT_TRUE(shard.delta(d).has_value());
  EXPECT_EQ(restarted.completed(), 5);
  EXPECT_EQ(restarted.covered_ids(), (std::vector<sym::BranchId>{1, 2, 4}));
  EXPECT_EQ(restarted.bugs().size(), 1u) << "bug dedup survives the restart";
  restarted.stop();
}

TEST(Coordinator, FleetJsonReportsPerShardTelemetryAndRates) {
  Coordinator coord(fig2_target(true), fast_opts(1000, 8));
  ASSERT_TRUE(coord.start());

  TestShard a, b;
  a.name = "node one";  // space survives the key and the fleet document
  b.name = "b";
  b.token = 2;
  ASSERT_TRUE(a.connect(coord.port()));
  ASSERT_TRUE(b.connect(coord.port()));
  ASSERT_TRUE(a.hello().has_value());
  ASSERT_TRUE(b.hello().has_value());

  // Telemetry piggybacks on deltas and heartbeats; two samples spaced in
  // coordinator time give each shard a live iters/sec estimate.
  coord::DeltaMsg d;
  d.iterations = 5;
  d.covered = {1, 2};
  d.telemetry = telemetry_at(5, 3);
  ASSERT_TRUE(a.delta(d).has_value());
  ASSERT_TRUE(b.heartbeat(telemetry_at(2, 1)).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_TRUE(a.heartbeat(telemetry_at(25, 4)).has_value());
  ASSERT_TRUE(b.heartbeat(telemetry_at(12, 2)).has_value());

  const auto fleet = obs::parse_json_object(coord.fleet_json());
  ASSERT_TRUE(fleet.has_value());
  EXPECT_EQ(fleet->num("budget").value_or(-1), 1000);
  EXPECT_EQ(fleet->num("shards_connected").value_or(-1), 2);
  ASSERT_EQ(fleet->str("shard_0.name").value_or(""), "node one");
  ASSERT_EQ(fleet->str("shard_1.name").value_or(""), "b");
  EXPECT_TRUE(fleet->boolean("shard_0.connected").value_or(false));
  EXPECT_TRUE(fleet->boolean("shard_0.telemetry").value_or(false));
  EXPECT_EQ(fleet->num("shard_0.iterations").value_or(-1), 25);
  EXPECT_EQ(fleet->num("shard_1.iterations").value_or(-1), 12);
  EXPECT_EQ(fleet->num("shard_0.frontier_depth").value_or(-1), 4);
  EXPECT_EQ(fleet->num("shard_0.covered").value_or(-1), 35);
  // Both shards advanced between their two samples: live positive rates.
  EXPECT_GT(fleet->real("shard_0.rate").value_or(0.0), 0.0);
  EXPECT_GT(fleet->real("shard_1.rate").value_or(0.0), 0.0);
  // The sparkline ring carries the same two samples.
  EXPECT_NE(fleet->str("shard_0.timeline").value_or("").find(":25"),
            std::string::npos);

  // The telemetry also lands in the shard-labeled gauges (space intact).
  std::ostringstream prom;
  obs::registry().write_prometheus(prom);
  EXPECT_NE(
      prom.str().find("compi_shard_iterations{shard=\"node one\"} 25"),
      std::string::npos);
  coord.stop();
}

TEST(Coordinator, HealthzFlipsStalledThenRecoversOnNewCoverage) {
  TempDir dir;
  CoordinatorOptions o = fast_opts(1000, 8);
  o.log_dir = dir.path.string();
  o.journal = true;
  o.serve_port = 0;                // ephemeral control plane
  o.stall_window_seconds = 0.05;   // classify a stall almost immediately
  Coordinator coord(fig2_target(true), o);
  ASSERT_TRUE(coord.start());
  ASSERT_GT(coord.http_port(), 0);
  const std::string target =
      "127.0.0.1:" + std::to_string(coord.http_port());

  TestShard shard;
  ASSERT_TRUE(shard.connect(coord.port()));
  ASSERT_TRUE(shard.hello().has_value());

  // An empty frontier report plus a flat coverage curve past the window
  // must classify as frontier-starved and flip /healthz to 503.
  coord::ShardTelemetry starved = telemetry_at(4, /*frontier=*/0);
  ASSERT_TRUE(shard.heartbeat(starved).has_value());
  EXPECT_TRUE(eventually([&] {
    const auto r = serve::http_get(target, "/healthz");
    return r.has_value() && r->status == 503;
  }));
  const auto down = serve::http_get(target, "/healthz");
  ASSERT_TRUE(down.has_value());
  EXPECT_NE(down->body.find("frontier-starved"), std::string::npos);
  EXPECT_EQ(coord.diagnosis().first, "frontier-starved");
  const auto fleet = obs::parse_json_object(coord.fleet_json());
  ASSERT_TRUE(fleet.has_value());
  EXPECT_EQ(fleet->str("diagnosis_kind").value_or(""), "frontier-starved");

  // New merged coverage (and a refilled frontier) is progress: the next
  // diagnosis tick flips /healthz back to 200.
  coord::DeltaMsg d;
  d.iterations = 6;
  d.covered = {1, 2, 3};
  d.telemetry = telemetry_at(6, /*frontier=*/5);
  ASSERT_TRUE(shard.delta(d).has_value());
  EXPECT_TRUE(eventually([&] {
    const auto r = serve::http_get(target, "/healthz");
    return r.has_value() && r->status == 200;
  }));
  EXPECT_EQ(coord.diagnosis().first, "progressing");
  coord.stop();

  // The journal kept the verdict transitions (not one event per tick).
  const std::string journal = slurp(dir.path / "journal.jsonl");
  EXPECT_NE(journal.find("\"type\":\"diagnosis\""), std::string::npos);
  EXPECT_NE(journal.find("frontier-starved"), std::string::npos);
}

}  // namespace
}  // namespace compi

#else  // !COMPI_SERVE_POSIX

TEST(Coordinator, SkippedWithoutPosixSockets) {
  GTEST_SKIP() << "serve layer compiled out";
}

#endif
