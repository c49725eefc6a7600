// Interval (bounds) propagation for conjunctions of linear predicates.
//
// Given per-variable domains, repeatedly tightens each variable's interval
// using every predicate it appears in, to a fixpoint (or a pass limit — the
// propagation is monotone, so stopping early is sound, just less precise).
// An empty domain proves the conjunction unsatisfiable over the domains.
//
// Propagation runs on a DenseSystem: the conjunction renumbered onto dense
// variable ids, so domains are a flat Interval vector indexed by id rather
// than a hash map (the solver copies them at every search node).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "solver/interval.h"
#include "solver/predicate.h"

namespace compi::solver {

/// Per-variable domains.  Variables absent from the map are treated as
/// unconstrained int32-ranged (the default for marked C ints).
using DomainMap = std::unordered_map<Var, Interval>;

[[nodiscard]] inline Interval domain_of(const DomainMap& d, Var v) {
  auto it = d.find(v);
  return it == d.end() ? int32_domain() : it->second;
}

/// A conjunction over dense variable ids 0..vars.size()-1.  Dense ids
/// follow ascending original Var, so id order is Var order and each
/// predicate's terms stay sorted, exactly as in its LinearExpr.
struct DenseSystem {
  struct Term {
    std::uint32_t var = 0;
    std::int64_t coeff = 0;
  };
  struct Pred {
    CompareOp op = CompareOp::kEq;
    std::int64_t constant = 0;
    std::uint32_t begin = 0;  // [begin, end) in `terms`
    std::uint32_t end = 0;
  };

  std::vector<Var> vars;  // dense id -> original Var, ascending
  std::vector<Term> terms;
  std::vector<Pred> preds;

  /// Appends `p`, mapping each variable through `dense_of` (Var -> id).
  template <typename F>
  void add(const Predicate& p, F&& dense_of) {
    const auto begin = static_cast<std::uint32_t>(terms.size());
    for (const solver::Term& t : p.expr.terms()) {
      terms.push_back({dense_of(t.var), t.coeff});
    }
    preds.push_back({p.op, p.expr.constant_part(), begin,
                     static_cast<std::uint32_t>(terms.size())});
  }

  /// `preds` in order over the union of their variables and `extra_vars`.
  [[nodiscard]] static DenseSystem of(std::span<const Predicate> preds,
                                      std::span<const Var> extra_vars = {});

  /// The domain vector `domains` describes for this system's variables.
  [[nodiscard]] std::vector<Interval> domains_from(
      const DomainMap& domains) const;
};

/// Result of a propagation run.
struct PropagationResult {
  bool consistent = true;  // false => domains emptied: definitely UNSAT
  int passes = 0;          // passes executed before fixpoint / limit
};

/// Tightens `domains` (one Interval per dense id) in place using the
/// system's predicates.  Runs at most `max_passes` sweeps over all
/// predicates.  Returns consistent=false iff some domain became empty (a
/// proof of unsatisfiability).
PropagationResult propagate(const DenseSystem& sys,
                            std::vector<Interval>& domains,
                            int max_passes = 64);

/// Checks all fully-ground predicates (every variable's domain a point)
/// against those point values.  Complements propagate(), which cannot
/// refute `!=` over multi-point domains.
[[nodiscard]] bool ground_predicates_hold(const DenseSystem& sys,
                                          const std::vector<Interval>& domains);

/// The same two operations over a predicate list and a DomainMap; a
/// variable's map entry is written only when propagation tightened it.
PropagationResult propagate(std::span<const Predicate> preds,
                            DomainMap& domains, int max_passes = 64);
[[nodiscard]] bool ground_predicates_hold(std::span<const Predicate> preds,
                                          const DomainMap& domains);

}  // namespace compi::solver
