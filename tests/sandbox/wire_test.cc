// Wire-format round-trips for the sandbox supervisor pipe protocol.
#include "sandbox/wire.h"

#include <gtest/gtest.h>

#include <chrono>

#include "minimpi/launcher.h"
#include "tests/compi/fig2_target.h"

namespace compi::sandbox {
namespace {

/// One real in-process run of the Fig. 2 target: the richest TestLog the
/// codebase produces (path, trace, inputs, comm sizes, rank mappings).
minimpi::RunResult run_fig2(int nprocs, int focus) {
  const TargetInfo target = compi::testing::fig2_target();
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  minimpi::LaunchSpec spec;
  spec.program = target.program;
  spec.nprocs = nprocs;
  spec.focus = focus;
  spec.registry = &registry;
  spec.inputs = &inputs;
  spec.rng_seed = 42;
  spec.timeout = std::chrono::milliseconds(5000);
  return minimpi::launch(spec, *target.table);
}

void expect_same_run(const minimpi::RunResult& a,
                     const minimpi::RunResult& b) {
  EXPECT_EQ(a.focus, b.focus);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].outcome, b.ranks[r].outcome) << "rank " << r;
    EXPECT_EQ(a.ranks[r].message, b.ranks[r].message) << "rank " << r;
    // serialize() covers every TestLog field a rank writes to its log
    // file, so string equality is full-log equality.
    EXPECT_EQ(a.ranks[r].log.serialize(), b.ranks[r].log.serialize())
        << "rank " << r;
  }
}

TEST(SandboxWire, RunResultRoundTripsLosslessly) {
  const minimpi::RunResult run = run_fig2(3, 0);
  ASSERT_EQ(run.job_outcome(), rt::Outcome::kOk) << run.job_message();
  minimpi::RunResult decoded;
  ASSERT_TRUE(decode_run_result(encode_run_result(run), decoded));
  expect_same_run(run, decoded);
}

TEST(SandboxWire, NonZeroFocusRoundTrips) {
  const minimpi::RunResult run = run_fig2(4, 2);
  minimpi::RunResult decoded;
  ASSERT_TRUE(decode_run_result(encode_run_result(run), decoded));
  expect_same_run(run, decoded);
}

TEST(SandboxWire, MultiLineFaultMessagesRoundTrip) {
  rt::VarRegistry registry;
  const solver::Assignment inputs;
  minimpi::LaunchSpec spec;
  spec.nprocs = 2;
  spec.focus = 0;
  spec.registry = &registry;
  spec.inputs = &inputs;
  spec.timeout = std::chrono::milliseconds(5000);
  spec.program = [](rt::RuntimeContext& ctx, minimpi::Comm& world) {
    if (world.raw_rank() == 1) {
      ctx.check(false, "line one\nline two\nline three");
    }
    world.barrier();
  };
  const minimpi::RunResult run =
      minimpi::launch(spec, compi::testing::fig2_table());
  ASSERT_EQ(run.job_outcome(), rt::Outcome::kAssert);
  minimpi::RunResult decoded;
  ASSERT_TRUE(decode_run_result(encode_run_result(run), decoded));
  expect_same_run(run, decoded);
  EXPECT_NE(decoded.job_message().find('\n'), std::string::npos);
}

TEST(SandboxWire, FrameReaderReassemblesBytewiseFeeds) {
  std::string stream;
  append_frame(stream, FrameType::kError, "boom");
  append_frame(stream, FrameType::kSignal, "11");
  FrameReader reader;
  std::vector<Frame> frames;
  for (char c : stream) {
    reader.feed(&c, 1);
    while (auto f = reader.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(frames[0].payload, "boom");
  EXPECT_EQ(frames[1].type, FrameType::kSignal);
  EXPECT_EQ(frames[1].payload, "11");
  EXPECT_EQ(reader.bytes_fed(), stream.size());
  EXPECT_FALSE(reader.corrupt());
}

TEST(SandboxWire, TornTailIsHeldBackNotMisparsed) {
  std::string stream;
  append_frame(stream, FrameType::kResult, "partial payload");
  FrameReader reader;
  reader.feed(stream.data(), stream.size() - 4);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.corrupt());
  reader.feed(stream.data() + stream.size() - 4, 4);
  const std::optional<Frame> f = reader.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, "partial payload");
}

TEST(SandboxWire, CorruptHeaderPoisonsTheStream) {
  // "XXXX" little-endian is ~1.5 GB — far over the payload ceiling.
  const std::string garbage(16, 'X');
  FrameReader reader;
  reader.feed(garbage.data(), garbage.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
}

TEST(SandboxWire, UnknownFrameTypeIsCorrupt) {
  std::string stream;
  append_frame(stream, FrameType::kError, "ok");
  stream[4] = 'Z';  // clobber the type tag, keep the length valid
  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
}

TEST(SandboxWire, RegistryRoundTripsThroughTheWire) {
  rt::VarRegistry source;
  source.intern("x", rt::VarKind::kRegular, solver::int32_domain(), 500);
  source.intern("rank_w", rt::VarKind::kRankWorld);
  source.intern("split rank", rt::VarKind::kRankLocal, solver::int32_domain(),
                std::nullopt, 3);

  rt::VarRegistry dest;
  ASSERT_TRUE(apply_registry(encode_registry(source), dest));
  const std::vector<rt::VarMeta> want = source.all();
  const std::vector<rt::VarMeta> got = dest.all();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].domain.lo, want[i].domain.lo) << i;
    EXPECT_EQ(got[i].domain.hi, want[i].domain.hi) << i;
    EXPECT_EQ(got[i].cap, want[i].cap) << i;
    EXPECT_EQ(got[i].comm_index, want[i].comm_index) << i;
  }
  // Replaying again is a no-op: intern is first-marking-wins, so ids and
  // metadata stay stable across repeated syncs.
  ASSERT_TRUE(apply_registry(encode_registry(source), dest));
  EXPECT_EQ(dest.size(), source.size());
}

TEST(SandboxWire, ApplyRegistryRejectsGarbage) {
  rt::VarRegistry dest;
  EXPECT_FALSE(apply_registry("registry banana", dest));
  EXPECT_FALSE(apply_registry("registry 2\nvar 0 0 10 none -1 x\n", dest));
}

TEST(SandboxWire, DecodeRejectsTruncatedPayload) {
  const minimpi::RunResult run = run_fig2(2, 0);
  std::string payload = encode_run_result(run);
  payload.resize(payload.size() / 2);
  minimpi::RunResult decoded;
  EXPECT_FALSE(decode_run_result(payload, decoded));
}

TEST(SandboxWire, RegistrySuffixShipsOnlyUnsyncedVariables) {
  rt::VarRegistry source;
  source.intern("a", rt::VarKind::kRegular, solver::int32_domain(), 500);
  source.intern("b", rt::VarKind::kRankWorld);

  rt::VarRegistry dest;
  ASSERT_TRUE(apply_registry(encode_registry_suffix(source, 0), dest));
  ASSERT_EQ(dest.size(), 2u);

  // Two more interns on the source; the suffix from the sync point carries
  // exactly those, and replaying it reconstructs identical dense ids.
  source.intern("c", rt::VarKind::kRegular, solver::int32_domain(), 100);
  source.intern("split d", rt::VarKind::kRankLocal, solver::int32_domain(),
                std::nullopt, 7);
  const std::string suffix = encode_registry_suffix(source, 2);
  EXPECT_EQ(suffix.substr(0, 11), "registry 2\n");
  EXPECT_EQ(suffix.find(" a\n"), std::string::npos)
      << "already-synced variables must not be re-shipped";
  ASSERT_TRUE(apply_registry(suffix, dest));

  const std::vector<rt::VarMeta> want = source.all();
  const std::vector<rt::VarMeta> got = dest.all();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].comm_index, want[i].comm_index) << i;
  }
}

TEST(SandboxWire, RegistrySuffixPastTheEndIsAnEmptyNoOp) {
  rt::VarRegistry source;
  source.intern("x", rt::VarKind::kRegular, solver::int32_domain(), 500);
  rt::VarRegistry dest;
  ASSERT_TRUE(apply_registry(encode_registry_suffix(source, 1), dest));
  EXPECT_EQ(dest.size(), 0u);
  ASSERT_TRUE(apply_registry(encode_registry_suffix(source, 99), dest));
  EXPECT_EQ(dest.size(), 0u);
}

/// A SpawnRequest with every field off its default: the round-trip must be
/// exact, including the chaos plan and prescribed wildcard decisions.
SpawnRequest full_spawn_request() {
  SpawnRequest req;
  req.nprocs = 6;
  req.focus = 3;
  req.one_way = true;
  req.inputs[0] = 77;
  req.inputs[1] = -12;
  req.inputs[5] = 1'000'000;
  req.rng_seed = 0xDEADBEEFCAFEull;
  req.step_budget = 123'456;
  req.reduction = false;
  req.mark_mpi_vars = false;
  req.timeout_ms = 1'500;
  req.hang_ms = 5'000;
  req.track_base = 42;
  req.match_plan = {{0, 0, 2}, {1, 3, 0}};
  req.chaos.seed = 9;
  req.chaos.drop_rate = 0.25;
  req.chaos.delay_rate = 0.125;
  req.chaos.delay = std::chrono::milliseconds(17);
  req.chaos.crash_rank = 2;
  req.chaos.crash_at_call = 4;
  req.chaos.crash_outcome = rt::Outcome::kAssert;
  req.chaos.stall_rank = 1;
  req.chaos.stall_at_collective = 3;
  return req;
}

TEST(SandboxWire, SpawnRequestRoundTripsLosslessly) {
  const SpawnRequest req = full_spawn_request();
  SpawnRequest got;
  ASSERT_TRUE(decode_spawn_request(encode_spawn_request(req), got));
  EXPECT_EQ(got.nprocs, req.nprocs);
  EXPECT_EQ(got.focus, req.focus);
  EXPECT_EQ(got.one_way, req.one_way);
  EXPECT_EQ(got.inputs, req.inputs);
  EXPECT_EQ(got.rng_seed, req.rng_seed);
  EXPECT_EQ(got.step_budget, req.step_budget);
  EXPECT_EQ(got.reduction, req.reduction);
  EXPECT_EQ(got.mark_mpi_vars, req.mark_mpi_vars);
  EXPECT_EQ(got.timeout_ms, req.timeout_ms);
  EXPECT_EQ(got.hang_ms, req.hang_ms);
  EXPECT_EQ(got.track_base, req.track_base);
  EXPECT_EQ(got.match_plan, req.match_plan);
  EXPECT_EQ(got.chaos.seed, req.chaos.seed);
  EXPECT_DOUBLE_EQ(got.chaos.drop_rate, req.chaos.drop_rate);
  EXPECT_DOUBLE_EQ(got.chaos.delay_rate, req.chaos.delay_rate);
  EXPECT_EQ(got.chaos.delay, req.chaos.delay);
  EXPECT_EQ(got.chaos.crash_rank, req.chaos.crash_rank);
  EXPECT_EQ(got.chaos.crash_at_call, req.chaos.crash_at_call);
  EXPECT_EQ(got.chaos.crash_outcome, req.chaos.crash_outcome);
  EXPECT_EQ(got.chaos.stall_rank, req.chaos.stall_rank);
  EXPECT_EQ(got.chaos.stall_at_collective, req.chaos.stall_at_collective);
}

TEST(SandboxWire, DefaultSpawnRequestRoundTrips) {
  SpawnRequest got;
  got.nprocs = 99;  // must be overwritten back to the default
  ASSERT_TRUE(decode_spawn_request(encode_spawn_request(SpawnRequest{}), got));
  EXPECT_EQ(got.nprocs, 1);
  EXPECT_TRUE(got.inputs.empty());
  EXPECT_TRUE(got.match_plan.empty());
  EXPECT_EQ(got.chaos.crash_rank, -1);
}

TEST(SandboxWire, DecodeSpawnRejectsTruncationAndGarbage) {
  const std::string payload = encode_spawn_request(full_spawn_request());
  SpawnRequest out;
  EXPECT_FALSE(decode_spawn_request("", out));
  EXPECT_FALSE(decode_spawn_request("spawn banana", out));
  EXPECT_FALSE(decode_spawn_request("launch 1 0 0 1 1 1 1 1 1 0 0", out));
  // Prefixes that tear into the end_spawn sentinel (or earlier) must be
  // rejected: the sentinel is what distinguishes a complete request from a
  // torn one.
  for (std::size_t cut : {payload.size() - 2, payload.size() / 2,
                          std::size_t{10}}) {
    EXPECT_FALSE(decode_spawn_request(payload.substr(0, cut), out))
        << "cut at " << cut;
  }
}

TEST(SandboxWire, ForkServerFrameTagsAreKnownToTheReader) {
  std::string stream;
  append_frame(stream, FrameType::kHello, "compi-fork-server 1 1234");
  append_frame(stream, FrameType::kSpawn, encode_spawn_request(SpawnRequest{}));
  append_frame(stream, FrameType::kStatus, "spawned 4321");
  append_frame(stream, FrameType::kStatus, "reaped 0");
  append_frame(stream, FrameType::kDone, "next");
  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  std::vector<Frame> frames;
  while (auto f = reader.next()) frames.push_back(std::move(*f));
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[1].type, FrameType::kSpawn);
  EXPECT_EQ(frames[2].type, FrameType::kStatus);
  EXPECT_EQ(frames[3].payload, "reaped 0");
  EXPECT_EQ(frames[4].type, FrameType::kDone);
  EXPECT_FALSE(reader.corrupt());
}

}  // namespace
}  // namespace compi::sandbox
