#include "compi/history.h"

#include <string_view>

#include "serve/frame.h"

namespace compi {
namespace {

/// Encodes `row` against `base` (the previous row of its block, or a zero
/// row at a block start).
void encode(std::string& bytes, const IterationRecord& base,
            const IterationRecord& row) {
  serve::ByteWriter out(bytes);
  out.i64(static_cast<std::int64_t>(row.iteration) - base.iteration);
  out.i64(row.nprocs);
  out.i64(row.focus);
  out.u64(static_cast<std::uint64_t>(row.outcome) * 2 + (row.restart ? 1 : 0));
  out.u64(row.constraint_set_size);
  out.i64(static_cast<std::int64_t>(row.covered_branches) -
          static_cast<std::int64_t>(base.covered_branches));
  out.f64(row.exec_seconds);
  out.f64(row.solve_seconds);
  out.i64(row.solver_nodes);
  out.i64(row.retries);
  out.i64(row.worker);
  out.i64(row.interleaving);
}

/// Decodes the row at byte `at` of `bytes` against `base`, advancing `at`.
/// The bytes are the history's own encoding, so every read succeeds.
IterationRecord decode(std::string_view bytes, std::size_t& at,
                       const IterationRecord& base) {
  serve::ByteReader in(bytes.substr(at));
  std::int64_t iteration = 0, nprocs = 0, focus = 0, covered = 0, retries = 0,
               worker = 0;
  std::uint64_t outcome = 0, constraints = 0;
  IterationRecord row;
  (void)(in.i64(iteration) && in.i64(nprocs) && in.i64(focus) &&
         in.u64(outcome) && in.u64(constraints) && in.i64(covered) &&
         in.f64(row.exec_seconds) && in.f64(row.solve_seconds) &&
         in.i64(row.solver_nodes) && in.i64(retries) && in.i64(worker) &&
         in.i64(row.interleaving));
  at += in.consumed();
  row.iteration = static_cast<int>(base.iteration + iteration);
  row.nprocs = static_cast<int>(nprocs);
  row.focus = static_cast<int>(focus);
  row.outcome = static_cast<rt::Outcome>(outcome / 2);
  row.restart = (outcome & 1) != 0;
  row.constraint_set_size = constraints;
  row.covered_branches = static_cast<std::size_t>(
      static_cast<std::int64_t>(base.covered_branches) + covered);
  row.retries = static_cast<int>(retries);
  row.worker = static_cast<int>(worker);
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
  row = decode(h.bytes_, offset, block_base());
  while (index < first) next();
}

void IterationHistory::Decoder::next() {
  ++index;
  if (index >= history.size_) return;
  const bool block_start = index % kBlockRows == 0;
  row = decode(history.bytes_, offset,
               block_start ? block_base() : row);
}

}  // namespace compi
