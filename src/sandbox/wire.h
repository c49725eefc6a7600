// Supervisor <-> child wire format: framed messages over pipes.
//
// The framing is the shared codec in serve/frame.h (4-byte little-endian
// payload length, 1-byte type tag, payload); this header fixes the
// sandbox's tag set (FrameType) and its 256 MiB payload ceiling, and adds
// the payload codecs.  A sandboxed child streams its results back to the
// supervisor as frames: a kRegistry frame with the variables the run
// interned (when it interned any), then, from a cleanly finishing child,
// one kResult frame holding the full RunResult (every rank's TestLog); a
// child whose launcher threw writes a kError frame instead; a
// fatal-signal handler squeezes out a kSignal frame (just the signal
// number in decimal, written by hand because the handler cannot
// allocate) before re-raising.  The reader
// consumes the raw byte stream incrementally and simply stops at a
// trailing partial or malformed frame — exactly the residue a dying child
// leaves behind.
//
// The fork server (fork_server.h) speaks the same framing on two more
// pipes: the supervisor sends kRegistry sync frames plus one kSpawn frame
// per iteration down the control pipe, and the server answers with one
// kHello at startup and kStatus lifecycle frames for its executor process
// ("spawned <pid>", "reaped <wait-status>").  The executor answers each
// kSpawn on the result pipe with the classic kRegistry and kResult/kError
// (plus kSignal if it dies) frames and one kDone end-of-run frame.  Both
// the executor's control reader and the supervisor's status reader live
// for a whole campaign; the shared reader drops the bytes it has
// consumed, so neither grows.
//
// The three per-iteration payloads (kResult, kSpawn, kRegistry) are
// binary, in serve/frame.h's field codec (varints, zigzag varints, raw
// doubles, length-prefixed strings); the short lifecycle payloads are
// text.  Both ends are the same binary, so the layout carries no version.
// A decoder checks every count against the bytes left before it sizes a
// container and requires the payload to end exactly where the layout
// does: a torn or bit-flipped payload decodes to false (or to some other
// well-formed value), never to an overrun or an oversized allocation.
// Layouts are fixed by the encoder's field order: no padding and no
// wall-clock reading changes a payload's length.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "minimpi/launcher.h"
#include "runtime/var_registry.h"
#include "serve/frame.h"

namespace compi::sandbox {

enum class FrameType : char {
  kResult = 'R',    // payload: encode_run_result() bytes
  kError = 'E',     // payload: launcher error message
  kSignal = 'S',    // payload: decimal signal number (fatal-signal handler)
  kRegistry = 'V',  // payload: encode_registry() bytes (var interns)
  kSpawn = 'W',     // payload: encode_spawn_request() bytes (ctl pipe)
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

/// Appends a kResult frame holding a full RunResult — outcome, message,
/// and complete TestLog (coverage, path, trace, inputs) for every rank —
/// to `out`, encoding in place.
void encode_run_result(const minimpi::RunResult& run, std::string& out);

/// Inverse of encode_run_result, on the frame's payload.  False on any
/// malformed payload, which includes a path that mentions a variable id
/// >= `num_vars`: the size of the registry the run interned into, with
/// the run's kRegistry frame (which precedes its kResult) applied.
[[nodiscard]] bool decode_run_result(std::string_view payload,
                                     std::size_t num_vars,
                                     minimpi::RunResult& out);

/// Appends a kRegistry frame with the registry's variables of id >=
/// `start`, in intern (= variable id) order, to `out`.  A child mutates
/// only its own registry, so the new input variables a run interned must
/// be shipped back for the parent's planner, and the supervisor ships the
/// fork server the suffix it has not seen yet.  Interning is
/// first-marking-wins and never removes, so replaying suffixes in order
/// reconstructs identical dense ids (and a replayed shared prefix is a
/// no-op).  A `start` past the end encodes an empty suffix.
void encode_registry(const rt::VarRegistry& registry, std::size_t start,
                     std::string& out);

/// Replays an encode_registry() frame's payload into `registry`.  False on
/// any malformed payload, which then applies nothing.
[[nodiscard]] bool apply_registry(std::string_view payload,
                                  rt::VarRegistry& registry);

/// Appends a kSpawn frame: everything about one warm spawn that varies
/// between iterations.  The server captured the target program, branch
/// table and sandbox options when it forked, and the executor keeps its
/// own registry, so the frame carries only `spec`'s launch parameters
/// (inputs, chaos plan and prescribed wildcard decisions included) and
/// the supervisor-derived hang deadline the executor's rlimit fence is
/// sized from.
void encode_spawn_request(const minimpi::LaunchSpec& spec,
                          std::chrono::milliseconds hang, std::string& out);

/// Inverse of encode_spawn_request, on the frame's payload: sets `spec`'s
/// launch parameters, spec.inputs pointing at `inputs`, and `hang`.  False
/// on any malformed payload (the server rejects the spawn and the
/// supervisor cold-forks that iteration).
[[nodiscard]] bool decode_spawn_request(std::string_view payload,
                                        minimpi::LaunchSpec& spec,
                                        solver::Assignment& inputs,
                                        std::chrono::milliseconds& hang);

}  // namespace compi::sandbox
