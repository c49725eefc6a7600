// Wire-format round-trips for the sandbox supervisor pipe protocol, and
// the binary payload decoders' behavior on torn and corrupted payloads.
#include "sandbox/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <random>
#include <string_view>
#include <vector>

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

// The payloads of the frames the encoders append.
std::string encoded(const minimpi::RunResult& run) {
  std::string out;
  encode_run_result(run, out);
  return out.substr(kFrameHeaderBytes);
}

std::string encoded(const rt::VarRegistry& registry, std::size_t start = 0) {
  std::string out;
  encode_registry(registry, start, out);
  return out.substr(kFrameHeaderBytes);
}

/// One past the largest variable id `run`'s logs mention: the registry
/// size its decode is checked against.
std::size_t num_vars(const minimpi::RunResult& run) {
  std::size_t n = 0;
  for (const minimpi::RankResult& rank : run.ranks) {
    for (const auto& [v, value] : rank.log.inputs_used) {
      n = std::max(n, static_cast<std::size_t>(v) + 1);
    }
  }
  return n;
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
  ASSERT_TRUE(decode_run_result(encoded(run), num_vars(run), decoded));
  expect_same_run(run, decoded);
}

TEST(SandboxWire, NonZeroFocusRoundTrips) {
  const minimpi::RunResult run = run_fig2(4, 2);
  minimpi::RunResult decoded;
  ASSERT_TRUE(decode_run_result(encoded(run), num_vars(run), decoded));
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
  ASSERT_TRUE(decode_run_result(encoded(run), num_vars(run), decoded));
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
  ASSERT_TRUE(apply_registry(encoded(source), dest));
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
  ASSERT_TRUE(apply_registry(encoded(source), dest));
  EXPECT_EQ(dest.size(), source.size());
}

TEST(SandboxWire, ApplyRegistryRejectsGarbage) {
  rt::VarRegistry dest;
  EXPECT_FALSE(apply_registry("", dest));
  // Text is not the layout: 'r' (0x72) reads as a count of 114 variables,
  // more than the bytes that follow could hold.
  EXPECT_FALSE(apply_registry("registry banana", dest));
  EXPECT_FALSE(apply_registry("registry 2\nvar 0 0 10 none -1 x\n", dest));
  // One variable whose kind is out of range.
  EXPECT_FALSE(apply_registry(std::string("\x01\x09\x00\x00\x00\x00\x00", 7),
                              dest));
  // A well-formed variable followed by a stray byte.
  rt::VarRegistry source;
  source.intern("x", rt::VarKind::kRegular);
  EXPECT_FALSE(apply_registry(encoded(source) + '\0', dest));
  EXPECT_EQ(dest.size(), 0u) << "a malformed payload applies nothing";
}

TEST(SandboxWire, DecodeRejectsTruncatedPayload) {
  const minimpi::RunResult run = run_fig2(2, 0);
  std::string payload = encoded(run);
  payload.resize(payload.size() / 2);
  minimpi::RunResult decoded;
  EXPECT_FALSE(decode_run_result(payload, num_vars(run), decoded));
}

TEST(SandboxWire, RegistrySuffixShipsOnlyUnsyncedVariables) {
  rt::VarRegistry source;
  source.intern("a", rt::VarKind::kRegular, solver::int32_domain(), 500);
  source.intern("b", rt::VarKind::kRankWorld);

  rt::VarRegistry dest;
  ASSERT_TRUE(apply_registry(encoded(source, 0), dest));
  ASSERT_EQ(dest.size(), 2u);

  // Two more interns on the source; the suffix from the sync point carries
  // exactly those, and replaying it reconstructs identical dense ids.
  source.intern("c", rt::VarKind::kRegular, solver::int32_domain(), 100);
  source.intern("split d", rt::VarKind::kRankLocal, solver::int32_domain(),
                std::nullopt, 7);
  const std::string suffix = encoded(source, 2);
  EXPECT_EQ(suffix[0], '\x02') << "the suffix counts two variables";
  EXPECT_EQ(suffix.find("split d"), suffix.size() - 7);
  EXPECT_EQ(suffix.find('a'), std::string::npos)
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
  ASSERT_TRUE(apply_registry(encoded(source, 1), dest));
  EXPECT_EQ(dest.size(), 0u);
  ASSERT_TRUE(apply_registry(encoded(source, 99), dest));
  EXPECT_EQ(dest.size(), 0u);
}

/// One spawn as a kSpawn frame carries it: the launch parameters, the
/// inputs spec.inputs points at, and the hang deadline.  Not copyable, so
/// spec.inputs cannot dangle.
struct Spawn {
  minimpi::LaunchSpec spec;
  solver::Assignment inputs;
  std::chrono::milliseconds hang{62'000};

  Spawn() { spec.inputs = &inputs; }
  Spawn(const Spawn&) = delete;
  Spawn& operator=(const Spawn&) = delete;
};

std::string encoded(const Spawn& s) {
  std::string out;
  encode_spawn_request(s.spec, s.hang, out);
  return out.substr(kFrameHeaderBytes);
}

bool decode(std::string_view payload, Spawn& s) {
  return decode_spawn_request(payload, s.spec, s.inputs, s.hang);
}

/// A spawn with every field off its default: the round-trip must be
/// exact, including the chaos plan and prescribed wildcard decisions.
void fill_full_spawn(Spawn& s) {
  minimpi::LaunchSpec& spec = s.spec;
  spec.nprocs = 6;
  spec.focus = 3;
  spec.one_way = true;
  s.inputs[0] = 77;
  s.inputs[1] = -12;
  s.inputs[5] = 1'000'000;
  spec.rng_seed = 0xDEADBEEFCAFEull;
  spec.step_budget = 123'456;
  spec.reduction = false;
  spec.mark_mpi_vars = false;
  spec.timeout = std::chrono::milliseconds(1'500);
  s.hang = std::chrono::milliseconds(5'000);
  spec.track_base = 42;
  spec.match_plan = {{0, 0, 2}, {1, 3, 0}};
  spec.chaos.seed = 9;
  spec.chaos.drop_rate = 0.25;
  spec.chaos.delay_rate = 0.125;
  spec.chaos.delay = std::chrono::milliseconds(17);
  spec.chaos.crash_rank = 2;
  spec.chaos.crash_at_call = 4;
  spec.chaos.crash_outcome = rt::Outcome::kAssert;
  spec.chaos.stall_rank = 1;
  spec.chaos.stall_at_collective = 3;
}

std::string encoded_full_spawn() {
  Spawn s;
  fill_full_spawn(s);
  return encoded(s);
}

TEST(SandboxWire, SpawnRequestRoundTripsLosslessly) {
  Spawn want;
  fill_full_spawn(want);
  Spawn got;
  ASSERT_TRUE(decode(encoded(want), got));
  const minimpi::LaunchSpec& a = got.spec;
  const minimpi::LaunchSpec& b = want.spec;
  EXPECT_EQ(a.nprocs, b.nprocs);
  EXPECT_EQ(a.focus, b.focus);
  EXPECT_EQ(a.one_way, b.one_way);
  EXPECT_EQ(a.inputs, &got.inputs);
  EXPECT_EQ(got.inputs, want.inputs);
  EXPECT_EQ(a.rng_seed, b.rng_seed);
  EXPECT_EQ(a.step_budget, b.step_budget);
  EXPECT_EQ(a.reduction, b.reduction);
  EXPECT_EQ(a.mark_mpi_vars, b.mark_mpi_vars);
  EXPECT_EQ(a.timeout, b.timeout);
  EXPECT_EQ(got.hang, want.hang);
  EXPECT_EQ(a.track_base, b.track_base);
  EXPECT_EQ(a.match_plan, b.match_plan);
  EXPECT_EQ(a.chaos.seed, b.chaos.seed);
  EXPECT_DOUBLE_EQ(a.chaos.drop_rate, b.chaos.drop_rate);
  EXPECT_DOUBLE_EQ(a.chaos.delay_rate, b.chaos.delay_rate);
  EXPECT_EQ(a.chaos.delay, b.chaos.delay);
  EXPECT_EQ(a.chaos.crash_rank, b.chaos.crash_rank);
  EXPECT_EQ(a.chaos.crash_at_call, b.chaos.crash_at_call);
  EXPECT_EQ(a.chaos.crash_outcome, b.chaos.crash_outcome);
  EXPECT_EQ(a.chaos.stall_rank, b.chaos.stall_rank);
  EXPECT_EQ(a.chaos.stall_at_collective, b.chaos.stall_at_collective);
}

TEST(SandboxWire, DefaultSpawnRequestRoundTrips) {
  Spawn got;
  got.spec.nprocs = 99;  // must be overwritten back to the default
  got.inputs[3] = 1;     // must be cleared
  ASSERT_TRUE(decode(encoded(Spawn{}), got));
  EXPECT_EQ(got.spec.nprocs, 1);
  EXPECT_TRUE(got.inputs.empty());
  EXPECT_TRUE(got.spec.match_plan.empty());
  EXPECT_EQ(got.spec.chaos.crash_rank, -1);
}

TEST(SandboxWire, DecodeSpawnRejectsTruncationAndGarbage) {
  const std::string payload = encoded_full_spawn();
  Spawn out;
  EXPECT_FALSE(decode("", out));
  // Text is not the layout: the third byte of each reads as a flag set
  // with unknown bits.
  EXPECT_FALSE(decode("spawn banana", out));
  EXPECT_FALSE(decode("launch 1 0 0 1 1 1 1 1 1 0 0", out));
  // A torn request runs out of bytes; one with a stray tail does not end
  // where the layout does.
  for (std::size_t cut : {payload.size() - 2, payload.size() / 2,
                          std::size_t{10}}) {
    EXPECT_FALSE(decode(payload.substr(0, cut), out)) << "cut at " << cut;
  }
  EXPECT_FALSE(decode(payload + '\0', out));
}

TEST(SandboxWire, ForkServerFrameTagsAreKnownToTheReader) {
  std::string stream;
  append_frame(stream, FrameType::kHello, "compi-fork-server 1 1234");
  encode_spawn_request(minimpi::LaunchSpec{}, std::chrono::milliseconds(1),
                       stream);
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

/// Fills `registry` with what a 3-rank fig2 run interns, plus a variable
/// with a declared domain and a cap.
void intern_fig2(rt::VarRegistry& registry) {
  const TargetInfo target = compi::testing::fig2_target();
  const solver::Assignment inputs;
  minimpi::LaunchSpec spec;
  spec.program = target.program;
  spec.nprocs = 3;
  spec.registry = &registry;
  spec.inputs = &inputs;
  spec.timeout = std::chrono::milliseconds(5000);
  (void)minimpi::launch(spec, *target.table);
  registry.intern("capped", rt::VarKind::kRegular, {-5, 90}, 40);
}

std::string encoded_fig2_registry() {
  rt::VarRegistry registry;
  intern_fig2(registry);
  return encoded(registry);
}

/// Elements (ranks, entries, terms, ids, bytes of text, ...) a decoded
/// value holds, a coverage bitmap counting one per 8 branches.  Each takes
/// at least one payload byte of its own, so a decoder that sizes nothing
/// from an unchecked count holds at most one element per byte it read,
/// plus, when it fails, at most one per byte left for the containers it
/// sized before the failure.
std::size_t decoded_elements(const minimpi::RunResult& run) {
  std::size_t n = run.ranks.size() + run.match_trace.size();
  for (const minimpi::MatchRecord& m : run.match_trace) n += m.feasible.size();
  for (const minimpi::RankResult& rank : run.ranks) {
    const rt::TestLog& log = rank.log;
    n += rank.message.size() + log.outcome_message.size() +
         log.covered.size() / 8 + log.path.size() + log.branch_trace.size() +
         log.inputs_used.size() + log.comm_sizes.size() +
         log.rank_mapping.size();
    for (const sym::PathEntry& e : log.path.entries()) {
      n += e.constraint.expr.num_terms();
    }
    for (const std::vector<int>& row : log.rank_mapping) n += row.size();
  }
  return n;
}

std::size_t decoded_elements(const Spawn& s) {
  return s.inputs.size() + s.spec.match_plan.size();
}

std::size_t decoded_elements(const rt::VarRegistry& registry) {
  std::size_t n = registry.size();
  for (const rt::VarMeta& m : registry.all()) n += m.key.size();
  return n;
}

/// The three per-iteration payloads of a realistic run, with a decoder
/// that reports the decoded element count.
struct Payload {
  const char* name;
  std::string bytes;
  std::function<bool(std::string_view, std::size_t&)> decode;
};

std::vector<Payload> fig2_payloads() {
  std::vector<Payload> out;
  const minimpi::RunResult fig2 = run_fig2(3, 1);
  out.push_back({"result", encoded(fig2),
                 [vars = num_vars(fig2)](std::string_view p,
                                         std::size_t& elements) {
                   minimpi::RunResult run;
                   const bool ok = decode_run_result(p, vars, run);
                   elements = decoded_elements(run);
                   return ok;
                 }});
  out.push_back({"spawn", encoded_full_spawn(),
                 [](std::string_view p, std::size_t& elements) {
                   Spawn s;
                   const bool ok = decode(p, s);
                   elements = decoded_elements(s);
                   return ok;
                 }});
  out.push_back({"registry", encoded_fig2_registry(),
                 [](std::string_view p, std::size_t& elements) {
                   rt::VarRegistry registry;
                   const bool ok = apply_registry(p, registry);
                   elements = decoded_elements(registry);
                   return ok;
                 }});
  return out;
}

TEST(SandboxWire, EveryPrefixOfAPayloadIsRejected) {
  for (const Payload& p : fig2_payloads()) {
    std::size_t elements = 0;
    ASSERT_TRUE(p.decode(p.bytes, elements)) << p.name;
    for (std::size_t cut = 0; cut < p.bytes.size(); ++cut) {
      EXPECT_FALSE(p.decode(std::string_view(p.bytes).substr(0, cut),
                            elements))
          << p.name << " cut at " << cut << " of " << p.bytes.size();
    }
  }
}

TEST(SandboxWire, ByteFlipsDecodeCleanlyWithinThePayloadSize) {
  // A flipped byte may still decode (to some other well-formed value) or
  // be rejected; it must never read past the payload or size a container
  // from an unchecked count.  The sanitizer builds turn an overrun into a
  // failure; the element bound catches an oversized allocation.
  std::mt19937 rng(0x5A4D);
  for (const Payload& p : fig2_payloads()) {
    int accepted = 0;
    for (int i = 0; i < 10'000; ++i) {
      std::string bytes = p.bytes;
      const std::size_t at = rng() % bytes.size();
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng() % 255));
      std::size_t elements = 0;
      accepted += p.decode(bytes, elements) ? 1 : 0;
      ASSERT_LE(elements, 2 * bytes.size())
          << p.name << ": byte " << at << " flipped to "
          << static_cast<int>(static_cast<unsigned char>(bytes[at]));
    }
    EXPECT_LT(accepted, 10'000) << p.name;
  }
}

TEST(SandboxWire, EqualResultsEncodeToIdenticalBytes) {
  // Payloads are written field by field, so no struct padding or other
  // uninitialized byte reaches the wire: equal values give equal bytes,
  // as do a decode and re-encode.
  const minimpi::RunResult run = run_fig2(3, 0);
  minimpi::RunResult again = run_fig2(3, 0);
  again.wall_seconds = run.wall_seconds;
  const std::string bytes = encoded(run);
  EXPECT_EQ(encoded(again), bytes);
  minimpi::RunResult decoded;
  ASSERT_TRUE(decode_run_result(bytes, num_vars(run), decoded));
  EXPECT_EQ(encoded(decoded), bytes);

  const std::string spawn = encoded_full_spawn();
  Spawn spawn_back;
  ASSERT_TRUE(decode(spawn, spawn_back));
  EXPECT_EQ(encoded(spawn_back), spawn);

  const std::string registry = encoded_fig2_registry();
  rt::VarRegistry registry_back;
  ASSERT_TRUE(apply_registry(registry, registry_back));
  EXPECT_EQ(encoded(registry_back), registry);
}

}  // namespace
}  // namespace compi::sandbox
