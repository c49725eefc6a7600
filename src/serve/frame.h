// The one length-prefixed frame codec, shared by both wires.
//
// A frame is a 4-byte little-endian payload length, a 1-byte type tag,
// then the payload.  Two transports speak it, each with its own tag set
// and payload ceiling:
//   * the sandbox supervisor's pipes (sandbox/wire.h wraps this codec in
//     its FrameType enum, 256 MiB ceiling);
//   * the campaign coordinator's TCP link (compi/coord_protocol.h,
//     kMaxWireFramePayload) — the MsgServer reads it with WireFrameReader,
//     the shard link decodes its blocking replies with
//     decode_wire_header().
// The reader consumes a raw byte stream incrementally and stops at a
// malformed header (unknown tag, length over the ceiling): everything
// after the first corruption is ignored, which is exactly the right
// behavior for a peer that died mid-write.  It keeps only the unread tail,
// so a stream that lives for a whole campaign stays small.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace compi::serve {

struct WireFrame {
  char type = '\0';
  std::string payload;
};

/// Bytes of framing overhead per frame (length prefix + type tag).
inline constexpr std::size_t kWireFrameHeaderBytes = 5;

/// Frames larger than this are treated as corruption, not messages: the
/// coordinator wire carries campaign deltas (covered-branch ids, bug
/// records, ledger blobs), which stay far below this even on huge targets.
inline constexpr std::size_t kMaxWireFramePayload = 64u * 1024u * 1024u;

/// Appends one frame (header + payload) to `out`.
void append_wire_frame(std::string& out, char type, std::string_view payload);

/// The payload length a kWireFrameHeaderBytes-byte `header` announces (its
/// tag is header[4]), or nullopt when the tag is not in `valid_types` or
/// the length exceeds `max_payload` — a corrupt stream.
[[nodiscard]] std::optional<std::size_t> decode_wire_header(
    const char* header, std::string_view valid_types,
    std::size_t max_payload);

/// Incremental frame parser over a raw byte stream.  `valid_types` is the
/// set of acceptable tag characters; any other tag, or a length over
/// `max_payload`, marks the stream corrupt and next() stops returning
/// frames.
class WireFrameReader {
 public:
  explicit WireFrameReader(std::string valid_types,
                           std::size_t max_payload = kMaxWireFramePayload)
      : valid_types_(std::move(valid_types)), max_payload_(max_payload) {}

  void feed(const char* data, std::size_t n);

  /// The next complete frame, or nullopt (partial tail, corrupt stream, or
  /// nothing buffered).
  [[nodiscard]] std::optional<WireFrame> next();

  /// True once a malformed header was seen.
  [[nodiscard]] bool corrupt() const { return corrupt_; }
  /// Total bytes fed so far, corrupt tail included.
  [[nodiscard]] std::size_t bytes_fed() const { return fed_; }

 private:
  std::string valid_types_;
  std::size_t max_payload_;
  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t fed_ = 0;
  bool corrupt_ = false;
};

}  // namespace compi::serve
