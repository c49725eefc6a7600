#include "compi/history.h"

#include <cstring>

namespace compi {
namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_signed(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));  // zigzag
}

void put_double(std::vector<std::uint8_t>& out, double d) {
  std::uint8_t raw[sizeof d];
  std::memcpy(raw, &d, sizeof d);
  out.insert(out.end(), raw, raw + sizeof d);
}

std::uint64_t get_varint(const std::uint8_t* bytes, std::size_t& at) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t b = bytes[at++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (b < 0x80) return v;
  }
}

std::int64_t get_signed(const std::uint8_t* bytes, std::size_t& at) {
  const std::uint64_t z = get_varint(bytes, at);
  return static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
}

double get_double(const std::uint8_t* bytes, std::size_t& at) {
  double d = 0.0;
  std::memcpy(&d, bytes + at, sizeof d);
  at += sizeof d;
  return d;
}

/// Encodes `row` against `base` (the previous row of its block, or a zero
/// row at a block start).
void encode(std::vector<std::uint8_t>& out, const IterationRecord& base,
            const IterationRecord& row) {
  put_signed(out, static_cast<std::int64_t>(row.iteration) - base.iteration);
  put_signed(out, row.nprocs);
  put_signed(out, row.focus);
  put_varint(out, static_cast<std::uint64_t>(row.outcome) * 2 +
                      (row.restart ? 1 : 0));
  put_varint(out, row.constraint_set_size);
  put_signed(out, static_cast<std::int64_t>(row.covered_branches) -
                      static_cast<std::int64_t>(base.covered_branches));
  put_double(out, row.exec_seconds);
  put_double(out, row.solve_seconds);
  put_signed(out, row.solver_nodes);
  put_signed(out, row.retries);
  put_signed(out, row.worker);
  put_signed(out, row.interleaving);
}

IterationRecord decode(const std::uint8_t* bytes, std::size_t& at,
                       const IterationRecord& base) {
  IterationRecord row;
  row.iteration =
      static_cast<int>(base.iteration + get_signed(bytes, at));
  row.nprocs = static_cast<int>(get_signed(bytes, at));
  row.focus = static_cast<int>(get_signed(bytes, at));
  const std::uint64_t outcome = get_varint(bytes, at);
  row.outcome = static_cast<rt::Outcome>(outcome / 2);
  row.restart = (outcome & 1) != 0;
  row.constraint_set_size = get_varint(bytes, at);
  row.covered_branches = static_cast<std::size_t>(
      static_cast<std::int64_t>(base.covered_branches) + get_signed(bytes, at));
  row.exec_seconds = get_double(bytes, at);
  row.solve_seconds = get_double(bytes, at);
  row.solver_nodes = get_signed(bytes, at);
  row.retries = static_cast<int>(get_signed(bytes, at));
  row.worker = static_cast<int>(get_signed(bytes, at));
  row.interleaving = get_signed(bytes, at);
  return row;
}

/// The base a block's first row is coded against.
IterationRecord block_base() {
  IterationRecord zero;
  zero.iteration = 0;
  zero.covered_branches = 0;
  return zero;
}

}  // namespace

void IterationHistory::push_back(const IterationRecord& row) {
  const bool block_start = size_ % kBlockRows == 0;
  if (block_start) {
    block_offsets_.push_back(static_cast<std::uint32_t>(bytes_.size()));
  }
  encode(bytes_, block_start ? block_base() : last_, row);
  last_ = row;
  ++size_;
  if (decoded_valid_) {
    decoded_ = {};
    decoded_valid_ = false;
  }
}

void IterationHistory::clear() {
  bytes_.clear();
  block_offsets_.clear();
  size_ = 0;
  last_ = IterationRecord{};
  decoded_ = {};
  decoded_valid_ = false;
}

void IterationHistory::shrink_to_fit() {
  bytes_.shrink_to_fit();
  block_offsets_.shrink_to_fit();
  decoded_ = {};
  decoded_valid_ = false;
}

const std::vector<IterationRecord>& IterationHistory::rows() const {
  if (!decoded_valid_) {
    decoded_.clear();
    decoded_.reserve(size_);
    visit(0, [this](const IterationRecord& r) { decoded_.push_back(r); });
    decoded_valid_ = true;
  }
  return decoded_;
}

IterationHistory::Decoder::Decoder(const IterationHistory& h,
                                   std::size_t first)
    : history(h), index(first - first % kBlockRows) {
  if (index >= h.size_) {
    index = h.size_;
    return;
  }
  offset = h.block_offsets_[index / kBlockRows];
  row = decode(h.bytes_.data(), offset, block_base());
  while (index < first) next();
}

void IterationHistory::Decoder::next() {
  ++index;
  if (index >= history.size_) return;
  const bool block_start = index % kBlockRows == 0;
  row = decode(history.bytes_.data(), offset,
               block_start ? block_base() : row);
}

}  // namespace compi
