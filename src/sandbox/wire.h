// Supervisor <-> child wire format: framed messages over pipes.
//
// The framing is the shared codec in serve/frame.h (4-byte little-endian
// payload length, 1-byte type tag, payload); this header fixes the
// sandbox's tag set (FrameType) and its 256 MiB payload ceiling, and adds
// the payload codecs.  A sandboxed child streams its results back to the
// supervisor as frames: a cleanly finishing child writes one kResult frame
// holding the full RunResult (every rank's TestLog, serialized with the
// same text helpers the checkpoint format uses); a child whose launcher
// threw writes a kError frame; a fatal-signal handler squeezes out a
// kSignal frame (just the signal number, written by hand because the
// handler cannot allocate) before re-raising.  The reader consumes the raw
// byte stream incrementally and simply stops at a trailing partial or
// malformed frame — exactly the residue a dying child leaves behind.
//
// The fork server (fork_server.h) speaks the same framing on two more
// pipes: the supervisor sends kRegistry sync frames plus one kSpawn frame
// per iteration down the control pipe, and the server answers with one
// kHello at startup and kStatus lifecycle frames for its executor process
// ("spawned <pid>", "reaped <wait-status>").  The executor answers each
// kSpawn on the result pipe with the classic kResult/kError (plus kSignal
// if it dies) frames, a kRegistry frame with the variables the run
// interned, and one kDone end-of-run frame.  Both the executor's control
// reader and the supervisor's status reader live for a whole campaign;
// the shared reader drops the bytes it has consumed, so neither grows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "minimpi/launcher.h"
#include "runtime/var_registry.h"
#include "serve/frame.h"

namespace compi::sandbox {

enum class FrameType : char {
  kResult = 'R',    // payload: encode_run_result() text
  kError = 'E',     // payload: launcher error message
  kSignal = 'S',    // payload: decimal signal number (fatal-signal handler)
  kRegistry = 'V',  // payload: encode_registry() text (child's var interns)
  kSpawn = 'W',     // payload: encode_spawn_request() text (ctl pipe)
  kHello = 'H',     // payload: "compi-fork-server <version> <pid>"
  kStatus = 'T',    // payload: "spawned <pid>" | "reaped <status>"
  kDone = 'D',      // payload: "next" | "exit" | "reject <reason>"
                    //          (the executor's end of one run)
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Bytes of framing overhead per frame (length prefix + type tag).
inline constexpr std::size_t kFrameHeaderBytes = serve::kWireFrameHeaderBytes;

/// Appends one frame (header + payload) to `out`.
void append_frame(std::string& out, FrameType type, std::string_view payload);

/// Incremental frame parser over the raw pipe byte stream.  Tolerates (and
/// stops at) truncated or corrupt tails: next() returns nullopt once the
/// buffered bytes no longer start with a complete well-formed frame.
class FrameReader {
 public:
  FrameReader();

  void feed(const char* data, std::size_t n) { reader_.feed(data, n); }

  /// The next complete frame, or nullopt (partial tail, corrupt tail, or
  /// nothing buffered).
  [[nodiscard]] std::optional<Frame> next();

  /// True once a malformed header was seen; everything after it is ignored.
  [[nodiscard]] bool corrupt() const { return reader_.corrupt(); }
  /// Total bytes fed so far (the supervisor's harvest accounting).
  [[nodiscard]] std::size_t bytes_fed() const { return reader_.bytes_fed(); }

 private:
  serve::WireFrameReader reader_;
};

/// Serializes a full RunResult — outcome, message, and complete TestLog
/// (coverage, path, trace, inputs) for every rank.
[[nodiscard]] std::string encode_run_result(const minimpi::RunResult& run);

/// Inverse of encode_run_result.  False on any parse error.
[[nodiscard]] bool decode_run_result(std::string_view payload,
                                     minimpi::RunResult& out);

/// One rank's TestLog round-trip (exposed for tests).
void write_test_log(std::ostream& os, const rt::TestLog& log);
[[nodiscard]] bool read_test_log(std::istream& is, rt::TestLog& log);

/// Serializes the registry's full contents in intern (= variable id)
/// order.  The child mutates only its fork-copied registry, so new input
/// variables it interned must be shipped back for the parent's planner —
/// replaying the interns in order reproduces identical dense ids
/// (first-marking-wins makes the shared prefix a no-op).
[[nodiscard]] std::string encode_registry(const rt::VarRegistry& registry);

/// Replays an encode_registry() payload into `registry`.  False on any
/// parse error (the registry keeps whatever prefix was applied).
[[nodiscard]] bool apply_registry(std::string_view payload,
                                  rt::VarRegistry& registry);

/// Like encode_registry but only variables with id >= `start`: the
/// append-only suffix the fork server hasn't seen yet.  Interning is
/// first-marking-wins and never removes, so replaying suffixes in order
/// reconstructs identical dense ids on the server side.
[[nodiscard]] std::string encode_registry_suffix(
    const rt::VarRegistry& registry, std::size_t start);

/// Everything about one warm spawn that varies between iterations.  The
/// server captured the target program, branch table, and sandbox options
/// when it forked; a kSpawn frame carries only the per-iteration launch
/// parameters (including the chaos plan and any prescribed wildcard
/// decisions) plus the supervisor-derived hang deadline the executor's
/// rlimit fence is sized from.
struct SpawnRequest {
  int nprocs = 1;
  int focus = 0;
  bool one_way = false;
  solver::Assignment inputs;
  std::uint64_t rng_seed = 1;
  std::int64_t step_budget = 2'000'000;
  bool reduction = true;
  bool mark_mpi_vars = true;
  std::int64_t timeout_ms = 30'000;
  std::int64_t hang_ms = 62'000;
  int track_base = 0;
  minimpi::MatchPlan match_plan;
  minimpi::FaultPlan chaos;
};

[[nodiscard]] std::string encode_spawn_request(const SpawnRequest& req);

/// Inverse of encode_spawn_request.  False on any parse error (the server
/// rejects the spawn and the supervisor cold-forks that iteration).
[[nodiscard]] bool decode_spawn_request(std::string_view payload,
                                        SpawnRequest& out);

}  // namespace compi::sandbox
