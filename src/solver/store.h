// Constraint stores: recorded predicates plus a per-variable occurrence
// index, the shape the incremental solver reads.
//
// A concolic run records its path constraints once; every candidate then
// keeps the entries before some depth and negates the entry at it (paper
// §III-C).  Instead of copying that prefix per candidate, the solver reads
// the recorded path in place through this interface and finds the
// dependency slice by walking occurrence lists: the predicates that mention
// a variable, in ascending index order.  Restricted to indices below the
// depth, a slice costs O(slice), never O(path) — the push/pop discipline
// CREST gets from Yices's incremental context, without the pops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "solver/predicate.h"

namespace compi::solver {

/// Per-variable ascending lists of the indices of the predicates that
/// mention the variable.  Variables are the registry's non-negative ids.
class OccurrenceIndex {
 public:
  void clear() { lists_.clear(); }
  /// Records that predicate `index` mentions every variable of `expr`.
  /// Indices must be added in ascending order.
  void add(std::uint32_t index, const LinearExpr& expr);

  [[nodiscard]] std::span<const std::uint32_t> of(Var v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= lists_.size()) return {};
    return lists_[static_cast<std::size_t>(v)];
  }
  /// One past the largest variable seen (0 when empty).
  [[nodiscard]] std::size_t var_bound() const { return lists_.size(); }

 private:
  std::vector<std::vector<std::uint32_t>> lists_;  // by Var
};

/// What the solver reads of a recorded conjunction: its predicates by
/// index and their occurrence lists.  Implemented by sym::Path (a run's
/// path) and PredicateStore (any other predicate list).
class ConstraintStore {
 public:
  virtual ~ConstraintStore() = default;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual const Predicate& predicate(std::size_t i) const = 0;
  [[nodiscard]] virtual const OccurrenceIndex& occurrences() const = 0;
};

/// A plain predicate list as a store: a run's MPI-semantics constraints,
/// built once per run and shared by all of its candidates.
class PredicateStore final : public ConstraintStore {
 public:
  PredicateStore() = default;
  explicit PredicateStore(std::vector<Predicate> preds);

  void push_back(Predicate p);

  [[nodiscard]] std::size_t size() const override { return preds_.size(); }
  [[nodiscard]] const Predicate& predicate(std::size_t i) const override {
    return preds_[i];
  }
  [[nodiscard]] const OccurrenceIndex& occurrences() const override {
    return occ_;
  }

 private:
  std::vector<Predicate> preds_;
  OccurrenceIndex occ_;
};

}  // namespace compi::solver
