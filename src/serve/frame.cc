#include "serve/frame.h"

namespace compi::serve {

namespace {

void put_u32_le(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

std::uint32_t get_u32_le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

void append_wire_frame(std::string& out, char type,
                       std::string_view payload) {
  const std::size_t header = begin_wire_frame(out, type);
  out.append(payload);
  end_wire_frame(out, header);
}

std::size_t begin_wire_frame(std::string& out, char type) {
  const std::size_t header = out.size();
  out.append(4, '\0');
  out.push_back(type);
  return header;
}

void end_wire_frame(std::string& out, std::size_t header) {
  put_u32_le(out.data() + header, static_cast<std::uint32_t>(
                                      out.size() - header -
                                      kWireFrameHeaderBytes));
}

std::optional<std::size_t> decode_wire_header(const char* header,
                                              std::string_view valid_types,
                                              std::size_t max_payload) {
  const std::size_t len = get_u32_le(header);
  if (len > max_payload || valid_types.find(header[4]) == std::string::npos) {
    return std::nullopt;
  }
  return len;
}

void WireFrameReader::feed(const char* data, std::size_t n) {
  fed_ += n;
  if (!corrupt_) buf_.append(data, n);
}

std::optional<WireFrame> WireFrameReader::next() {
  if (corrupt_) return std::nullopt;
  if (buf_.size() - pos_ < kWireFrameHeaderBytes) return std::nullopt;
  const std::optional<std::size_t> len =
      decode_wire_header(buf_.data() + pos_, valid_types_, max_payload_);
  if (!len) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (buf_.size() - pos_ - kWireFrameHeaderBytes < *len) return std::nullopt;
  WireFrame frame;
  frame.type = buf_[pos_ + 4];
  frame.payload.assign(buf_, pos_ + kWireFrameHeaderBytes, *len);
  pos_ += kWireFrameHeaderBytes + *len;
  // Drop consumed bytes: all of them once the buffer is drained, else the
  // prefix once it dominates, so a long-lived stream keeps only its unread
  // tail.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return frame;
}

}  // namespace compi::serve
