#include "solver/propagation.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace compi::solver {
namespace {

using DTerm = DenseSystem::Term;
using DPred = DenseSystem::Pred;

// GCD feasibility: sum c_i x_i + k == 0 has integer solutions only when
// gcd(|c_i|) divides k.  A cheap refutation interval reasoning misses
// (e.g. 2x + 4y == 3).
bool equality_gcd_feasible(const DenseSystem& sys, const DPred& p) {
  if (p.op != CompareOp::kEq || p.begin == p.end) return true;
  std::int64_t g = 0;
  for (std::uint32_t k = p.begin; k < p.end; ++k) {
    const std::int64_t c = sys.terms[k].coeff;
    g = std::gcd(g, c < 0 ? -c : c);
  }
  if (g == 0) return p.constant == 0;
  return p.constant % g == 0;
}

bool compare_holds(CompareOp op, std::int64_t v) {
  switch (op) {
    case CompareOp::kEq: return v == 0;
    case CompareOp::kNeq: return v != 0;
    case CompareOp::kLt: return v < 0;
    case CompareOp::kLe: return v <= 0;
    case CompareOp::kGt: return v > 0;
    case CompareOp::kGe: return v >= 0;
  }
  return false;
}

// For predicate `sum_i c_i x_i + k  op  0`, derives the interval of values
// variable `target` may take, given the current domains of the other
// variables, and intersects it into `dom`.  Returns true if `dom` changed.
bool tighten_one(const DenseSystem& sys, const DPred& p, std::uint32_t target,
                 std::int64_t c_t, const std::vector<Interval>& domains,
                 Interval& dom) {
  // Rest = sum over other terms + constant, as an interval.
  Interval rest = Interval::point(p.constant);
  for (std::uint32_t k = p.begin; k < p.end; ++k) {
    const DTerm& t = sys.terms[k];
    if (t.var == target) continue;
    rest = rest + domains[t.var].scaled(t.coeff);
    if (rest.is_empty()) return false;
  }

  // Normalize strict ops to non-strict over integers:
  //   E < 0  <=>  E <= -1;   E > 0  <=>  E >= 1.
  std::int64_t upper_rhs = 0;  // for <=-style bound on c_t*x_t + rest
  std::int64_t lower_rhs = 0;  // for >=-style bound
  bool has_upper = false;
  bool has_lower = false;
  switch (p.op) {
    case CompareOp::kLe: has_upper = true; upper_rhs = 0; break;
    case CompareOp::kLt: has_upper = true; upper_rhs = -1; break;
    case CompareOp::kGe: has_lower = true; lower_rhs = 0; break;
    case CompareOp::kGt: has_lower = true; lower_rhs = 1; break;
    case CompareOp::kEq:
      has_upper = has_lower = true;
      upper_rhs = lower_rhs = 0;
      break;
    case CompareOp::kNeq: {
      // Only useful when the rest is a point and the excluded value sits on
      // a domain boundary: x != v with dom [v, hi] becomes [v+1, hi].
      if (!rest.is_point()) return false;
      if (-rest.lo % c_t != 0) return false;
      const std::int64_t excluded = -rest.lo / c_t;
      Interval next = dom;
      if (next.lo == excluded) next.lo = sat_add(next.lo, 1);
      if (next.hi == excluded) next.hi = sat_add(next.hi, -1);
      if (next == dom) return false;
      dom = next;
      return true;
    }
  }

  Interval next = dom;
  if (has_upper) {
    // c_t * x_t <= upper_rhs - rest.lo  (feasibility requires the best case
    // of the rest, i.e. its minimum).
    const std::int64_t rhs = sat_add(upper_rhs, -rest.lo);
    if (c_t > 0) {
      next.hi = std::min(next.hi, floor_div(rhs, c_t));
    } else {
      next.lo = std::max(next.lo, ceil_div(rhs, c_t));
    }
  }
  if (has_lower) {
    // c_t * x_t >= lower_rhs - rest.hi.
    const std::int64_t rhs = sat_add(lower_rhs, -rest.hi);
    if (c_t > 0) {
      next.lo = std::max(next.lo, ceil_div(rhs, c_t));
    } else {
      next.hi = std::min(next.hi, floor_div(rhs, c_t));
    }
  }
  if (next == dom) return false;
  dom = next;
  return true;
}

}  // namespace

DenseSystem DenseSystem::of(std::span<const Predicate> preds,
                            std::span<const Var> extra_vars) {
  DenseSystem sys;
  for (const Predicate& p : preds) {
    for (const solver::Term& t : p.expr.terms()) sys.vars.push_back(t.var);
  }
  sys.vars.insert(sys.vars.end(), extra_vars.begin(), extra_vars.end());
  std::sort(sys.vars.begin(), sys.vars.end());
  sys.vars.erase(std::unique(sys.vars.begin(), sys.vars.end()),
                 sys.vars.end());
  const auto dense_of = [&sys](Var v) {
    return static_cast<std::uint32_t>(
        std::lower_bound(sys.vars.begin(), sys.vars.end(), v) -
        sys.vars.begin());
  };
  for (const Predicate& p : preds) sys.add(p, dense_of);
  return sys;
}

std::vector<Interval> DenseSystem::domains_from(
    const DomainMap& domains) const {
  std::vector<Interval> out;
  out.reserve(vars.size());
  for (Var v : vars) out.push_back(domain_of(domains, v));
  return out;
}

PropagationResult propagate(const DenseSystem& sys,
                            std::vector<Interval>& domains, int max_passes) {
  PropagationResult result;
  for (const DPred& p : sys.preds) {
    if (!equality_gcd_feasible(sys, p)) {
      result.consistent = false;
      return result;
    }
  }
  // A predicate that changed nothing when last applied, none of whose
  // variables changed since, would change nothing again: the sweep skips
  // it, so a pass costs the predicates whose inputs moved and the result
  // is exactly the full sweep's.  `clock` advances on every tightening.
  std::uint64_t clock = 1;
  std::vector<std::uint64_t> changed_at(domains.size(), 0);
  std::vector<std::uint64_t> quiet_since(sys.preds.size(), 0);  // 0: never
  const auto inputs_moved = [&](const DPred& p, std::uint64_t since) {
    for (std::uint32_t k = p.begin; k < p.end; ++k) {
      if (changed_at[sys.terms[k].var] > since) return true;
    }
    return false;
  };
  for (int pass = 0; pass < max_passes; ++pass) {
    result.passes = pass + 1;
    bool changed = false;
    for (std::size_t i = 0; i < sys.preds.size(); ++i) {
      const DPred& p = sys.preds[i];
      if (quiet_since[i] != 0 && !inputs_moved(p, quiet_since[i])) continue;
      bool tightened = false;
      for (std::uint32_t k = p.begin; k < p.end; ++k) {
        const DTerm& t = sys.terms[k];
        Interval dom = domains[t.var];
        if (tighten_one(sys, p, t.var, t.coeff, domains, dom)) {
          domains[t.var] = dom;
          changed_at[t.var] = ++clock;
          changed = tightened = true;
          if (dom.is_empty()) {
            result.consistent = false;
            return result;
          }
        }
      }
      // Ground predicate (no variables): must hold outright.
      if (p.begin == p.end && !compare_holds(p.op, p.constant)) {
        result.consistent = false;
        return result;
      }
      quiet_since[i] = tightened ? 0 : clock;
    }
    if (!changed) break;
  }
  return result;
}

bool ground_predicates_hold(const DenseSystem& sys,
                            const std::vector<Interval>& domains) {
  for (const DPred& p : sys.preds) {
    bool ground = true;
    std::int64_t acc = p.constant;
    for (std::uint32_t k = p.begin; k < p.end && ground; ++k) {
      const DTerm& t = sys.terms[k];
      ground = domains[t.var].is_point();
      acc = sat_add(acc, sat_mul(t.coeff, domains[t.var].lo));
    }
    if (ground && !compare_holds(p.op, acc)) return false;
  }
  return true;
}

PropagationResult propagate(std::span<const Predicate> preds,
                            DomainMap& domains, int max_passes) {
  const DenseSystem sys = DenseSystem::of(preds);
  const std::vector<Interval> before = sys.domains_from(domains);
  std::vector<Interval> after = before;
  const PropagationResult result = propagate(sys, after, max_passes);
  for (std::size_t i = 0; i < sys.vars.size(); ++i) {
    if (after[i] != before[i]) domains[sys.vars[i]] = after[i];
  }
  return result;
}

bool ground_predicates_hold(std::span<const Predicate> preds,
                            const DomainMap& domains) {
  const DenseSystem sys = DenseSystem::of(preds);
  return ground_predicates_hold(sys, sys.domains_from(domains));
}

}  // namespace compi::solver
