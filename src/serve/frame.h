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
//
// Binary payloads (the sandbox's result, spawn and registry frames) and
// the packed iteration history share one field codec, ByteWriter and
// ByteReader: unsigned integers as LEB128 varints, signed ones zigzag
// mapped onto varints, doubles as their raw 8 bytes, strings as a varint
// length then the bytes.  The reader is bounded: every field read past
// the end of its bytes fails instead of reading on.
#pragma once

#include <cstdint>
#include <cstring>
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

/// Appends the header of a frame whose payload the caller appends to `out`
/// next; end_wire_frame(out, <returned offset>) then fills in its length.
/// Encoders write straight into the frame this way, with no payload copy.
[[nodiscard]] std::size_t begin_wire_frame(std::string& out, char type);
void end_wire_frame(std::string& out, std::size_t header);

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

namespace detail {

inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Decodes the varint at `in[at]`, advancing `at`; false past the end of
/// `in` or after the 10 bytes a 64-bit value can take.
inline bool get_varint(std::string_view in, std::size_t& at,
                       std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64 && at < in.size(); shift += 7) {
    const auto b = static_cast<std::uint8_t>(in[at++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (b < 0x80) return true;
  }
  return false;
}

}  // namespace detail

/// Appends binary fields to a string (see the header comment).  Inline:
/// a payload is hundreds of fields, so a call per field would cost more
/// than the fields.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(&out) {}

  void u64(std::uint64_t v) { detail::put_varint(*out_, v); }
  void i64(std::int64_t v) {
    detail::put_varint(*out_, (static_cast<std::uint64_t>(v) << 1) ^
                                  static_cast<std::uint64_t>(v >> 63));
  }
  void f64(double v) {
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    out_->append(raw, sizeof v);
  }
  void str(std::string_view s) {
    detail::put_varint(*out_, s.size());
    out_->append(s);
  }

 private:
  std::string* out_;
};

/// Reads ByteWriter fields back from a byte range.  Every read returns
/// false, leaving its output unspecified, once the field would run past
/// the end or a varint is longer than 10 bytes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view in) : in_(in) {}

  [[nodiscard]] bool u64(std::uint64_t& v) {
    return detail::get_varint(in_, at_, v);
  }
  [[nodiscard]] bool i64(std::int64_t& v) {
    std::uint64_t z = 0;
    if (!detail::get_varint(in_, at_, z)) return false;
    v = static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
    return true;
  }
  [[nodiscard]] bool f64(double& v) {
    if (in_.size() - at_ < sizeof v) return false;
    std::memcpy(&v, in_.data() + at_, sizeof v);
    at_ += sizeof v;
    return true;
  }
  [[nodiscard]] bool str(std::string& s) {
    std::size_t n = 0;
    if (!count(n)) return false;
    s.assign(in_.data() + at_, n);
    at_ += n;
    return true;
  }
  /// A count of items that take at least `min_bytes` (>= 1) each: false
  /// when the bytes left could not hold that many, so a corrupt count
  /// fails before it sizes an allocation.
  [[nodiscard]] bool count(std::size_t& n, std::size_t min_bytes = 1) {
    std::uint64_t v = 0;
    if (!detail::get_varint(in_, at_, v) ||
        v > (in_.size() - at_) / min_bytes) {
      return false;
    }
    n = static_cast<std::size_t>(v);
    return true;
  }

  [[nodiscard]] std::size_t consumed() const { return at_; }
  [[nodiscard]] bool done() const { return at_ == in_.size(); }

 private:
  std::string_view in_;
  std::size_t at_ = 0;
};

}  // namespace compi::serve
