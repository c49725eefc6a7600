// A campaign's iteration rows (iterations.csv) as kept in memory.
//
// Every campaign holds its whole history for the report, `--explain`, the
// epoch dealer and its callers, so a row's size is the campaign's memory
// growth per iteration.  IterationHistory stores rows packed: each field
// as a varint, coded against the previous row of its block where the
// fields move slowly (ordinal, covered branches), and the two timings as
// exact doubles.  A SUSY row takes about 27 bytes instead of the 80 of an
// IterationRecord.  Rows read back exactly as appended.  A block of
// kBlockRows rows starts from a zero row, so decoding can start at any
// block through an index of block offsets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/faults.h"

namespace compi {

/// One iterations.csv row.
struct IterationRecord {
  int iteration = 0;
  int nprocs = 0;
  int focus = 0;
  rt::Outcome outcome = rt::Outcome::kOk;
  /// Size of the focus's recorded constraint set this run (Fig. 9).
  std::size_t constraint_set_size = 0;
  /// Cumulative covered branches after this iteration (coverage curves).
  std::size_t covered_branches = 0;
  double exec_seconds = 0.0;
  double solve_seconds = 0.0;
  bool restart = false;  // this run used fresh random inputs
  /// Backtracking-search nodes expanded by this iteration's solver queries
  /// (summed over candidates and budget retries).
  std::int64_t solver_nodes = 0;
  /// Transient-failure retries absorbed this iteration (timeout re-runs and
  /// relaxed-budget solver re-queries).
  int retries = 0;
  /// Campaign worker that executed this iteration (0 for the serial path).
  int worker = 0;
  /// Interleaving id when this iteration replayed a reordered wildcard
  /// matching (--explore-matchings); -1 for ordinary input-driven runs.
  std::int64_t interleaving = -1;
};

/// Append-only packed sequence of IterationRecords.
///
/// Two ways to read it.  visit() decodes rows one at a time and keeps
/// nothing: the campaign's own readers use it, so a finished campaign
/// holds only the packed bytes.  Range-for, operator[], front() and rows()
/// see the rows as a plain vector, decoded on first use and kept until the
/// next push_back(), clear() or shrink_to_fit(); references into it stay
/// valid until then.  Decoding on first use mutates the history, so
/// concurrent first readers must be serialized (the campaign's readers
/// hold its mutex).
class IterationHistory {
 public:
  static constexpr std::size_t kBlockRows = 64;

  IterationHistory() = default;
  IterationHistory(const std::vector<IterationRecord>& rows) {  // NOLINT
    for (const IterationRecord& r : rows) push_back(r);
  }
  IterationHistory& operator=(const std::vector<IterationRecord>& rows) {
    clear();
    for (const IterationRecord& r : rows) push_back(r);
    return *this;
  }

  void push_back(const IterationRecord& row);
  void clear();
  /// Releases the growth slack and the decoded rows.
  void shrink_to_fit();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Bytes the packed rows occupy (their encoding plus the block index).
  [[nodiscard]] std::size_t memory_bytes() const {
    return bytes_.size() + block_offsets_.size() * sizeof(std::uint32_t);
  }
  [[nodiscard]] const IterationRecord& back() const { return last_; }

  /// Calls `f(row)` for rows [first, size()) in order, decoding each into
  /// a temporary.
  template <typename F>
  void visit(std::size_t first, F&& f) const {
    for (Decoder d(*this, first); d.index < size_; d.next()) f(d.row);
  }

  [[nodiscard]] const std::vector<IterationRecord>& rows() const;
  [[nodiscard]] auto begin() const { return rows().begin(); }
  [[nodiscard]] auto end() const { return rows().end(); }
  [[nodiscard]] const IterationRecord& operator[](std::size_t i) const {
    return rows()[i];
  }
  [[nodiscard]] const IterationRecord& front() const { return rows().front(); }

 private:
  /// Sequential decoder positioned at row `index`.
  struct Decoder {
    Decoder(const IterationHistory& h, std::size_t first);
    void next();

    const IterationHistory& history;
    std::size_t index = 0;
    std::size_t offset = 0;  // byte offset of the row after `row`
    IterationRecord row;
  };

  std::string bytes_;
  std::vector<std::uint32_t> block_offsets_;  // byte offset of each block
  std::size_t size_ = 0;
  IterationRecord last_;  // the last row appended (the next row's base)
  mutable std::vector<IterationRecord> decoded_;  // rows(), when asked
  mutable bool decoded_valid_ = false;
};

}  // namespace compi
