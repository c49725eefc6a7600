#include "solver/solver.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"

namespace compi::solver {
namespace {

/// Preferred values by dense id (the previous test's inputs).
struct Preferred {
  std::vector<std::int64_t> value;
  std::vector<std::uint8_t> has;
};

Preferred preferred_of(const DenseSystem& sys, const Assignment& prefer) {
  Preferred out;
  out.value.assign(sys.vars.size(), 0);
  out.has.assign(sys.vars.size(), 0);
  for (std::size_t i = 0; i < sys.vars.size(); ++i) {
    if (auto it = prefer.find(sys.vars[i]); it != prefer.end()) {
      out.value[i] = it->second;
      out.has[i] = 1;
    }
  }
  return out;
}

struct SearchState {
  const DenseSystem* sys;
  const SolverOptions* opts;
  const Preferred* prefer;
  std::int64_t nodes_left;
  bool exhausted = false;
};

// Picks the unfixed variable with the narrowest domain (fail-first); ties
// go to the lowest id, which is the lowest Var.
std::optional<std::uint32_t> pick_branch_var(
    const std::vector<Interval>& domains) {
  std::optional<std::uint32_t> best;
  std::uint64_t best_width = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t v = 0; v < domains.size(); ++v) {
    const Interval dom = domains[v];
    if (dom.is_point()) continue;
    if (dom.width() < best_width) {
      best_width = dom.width();
      best = v;
    }
  }
  return best;
}

// Candidate values for `v`, most-promising first: the previous value (value
// reuse is what makes incremental solving report precise "changed" sets),
// then boundary values, zero, and the midpoint; small domains are
// enumerated exhaustively.  The small-value bias matches Yices-1's
// behaviour (its simplex core prefers zeros and tight bounds), which is
// what keeps the same query returning the same model run after run.
std::vector<std::int64_t> candidates_for(std::uint32_t v, Interval dom,
                                         const SearchState& st) {
  std::vector<std::int64_t> out;
  auto push = [&](std::int64_t x) {
    if (dom.contains(x) &&
        std::find(out.begin(), out.end(), x) == out.end()) {
      out.push_back(x);
    }
  };
  const bool has_prev = st.prefer->has[v] != 0;
  const std::int64_t prev = st.prefer->value[v];
  if (has_prev) push(prev);
  if (static_cast<std::int64_t>(dom.width()) <= st.opts->exhaustive_width &&
      dom.width() > 0) {
    for (std::int64_t x = dom.lo; x <= dom.hi; ++x) push(x);
    return out;
  }
  push(dom.lo);
  push(dom.hi);
  push(0);
  push(dom.lo + (dom.hi - dom.lo) / 2);
  push(sat_add(dom.lo, 1));
  push(sat_add(dom.hi, -1));
  push(1);
  if (has_prev) {
    push(sat_add(prev, 1));
    push(sat_add(prev, -1));
  }
  return out;
}

bool search(SearchState& st, std::vector<Interval> domains,
            std::vector<Interval>& solution) {
  if (!propagate(*st.sys, domains).consistent) return false;
  const std::optional<std::uint32_t> branch = pick_branch_var(domains);
  if (!branch) {
    if (!ground_predicates_hold(*st.sys, domains)) return false;
    solution = std::move(domains);
    return true;
  }
  const Interval dom = domains[*branch];
  for (std::int64_t value : candidates_for(*branch, dom, st)) {
    if (st.nodes_left-- <= 0) {
      st.exhausted = true;
      return false;
    }
    std::vector<Interval> next = domains;
    next[*branch] = Interval::point(value);
    if (search(st, std::move(next), solution)) return true;
  }
  return false;
}

/// Searches `sys` from `domains`; the model (one value per dense id) on
/// success.
std::optional<std::vector<std::int64_t>> search_dense(
    const DenseSystem& sys, std::vector<Interval> domains,
    const Assignment& prefer, const SolverOptions& opts,
    bool* budget_exhausted, std::int64_t* nodes_searched) {
  const Preferred preferred = preferred_of(sys, prefer);
  SearchState st{&sys, &opts, &preferred, opts.max_search_nodes};
  std::vector<Interval> solution;
  const bool found = search(st, std::move(domains), solution);
  if (nodes_searched != nullptr) {
    // nodes_left goes one past zero when the budget trips mid-expansion.
    *nodes_searched =
        opts.max_search_nodes - std::max<std::int64_t>(st.nodes_left, 0);
  }
  if (budget_exhausted != nullptr) *budget_exhausted = !found && st.exhausted;
  if (!found) return std::nullopt;
  std::vector<std::int64_t> model;
  model.reserve(solution.size());
  for (const Interval& dom : solution) model.push_back(dom.lo);
  return model;
}

/// Overlays a solved slice model onto `previous`, computing the
/// changed-variable set — the merge step shared by the search path and the
/// cache-hit path (both must produce identical SolveResults).
void merge_model(const Assignment& previous,
                 const std::vector<std::pair<Var, std::int64_t>>& model,
                 SolveResult& result) {
  result.sat = true;
  result.values = previous;
  for (const auto& [v, value] : model) {
    auto it = previous.find(v);
    if (it == previous.end() || it->second != value) {
      result.changed.push_back(v);
    }
    result.values[v] = value;
  }
  std::sort(result.changed.begin(), result.changed.end());
}

}  // namespace

std::optional<Assignment> Solver::solve(std::span<const Predicate> preds,
                                        const DomainMap& domains,
                                        const Assignment& prefer,
                                        bool* budget_exhausted,
                                        std::int64_t* nodes_searched) const {
  std::vector<Var> domain_vars;
  domain_vars.reserve(domains.size());
  for (const auto& [v, dom] : domains) domain_vars.push_back(v);
  const DenseSystem sys = DenseSystem::of(preds, domain_vars);
  const std::optional<std::vector<std::int64_t>> model =
      search_dense(sys, sys.domains_from(domains), prefer, opts_,
                   budget_exhausted, nodes_searched);
  if (!model) return std::nullopt;
  Assignment out;
  out.reserve(sys.vars.size());
  for (std::size_t i = 0; i < sys.vars.size(); ++i) {
    out[sys.vars[i]] = (*model)[i];
  }
  return out;
}

namespace {

/// BFS over the "shares a variable" relation, as CREST's Yices wrapper
/// does before handing constraints to the solver, but walking occurrence
/// lists: each variable is expanded once, and only the path entries below
/// `depth` are ever read.  A predicate is new when none of its other
/// variables was expanded before the current one.  On return `dense_of`
/// (indexed by Var) holds each slice variable's dense id: its rank in the
/// ascending `Slice::vars`.
Slice find_slice(const ConstraintStore& path, std::size_t depth,
                 const ConstraintStore& side, const Predicate& negated,
                 std::vector<std::uint32_t>& dense_of) {
  const OccurrenceIndex& path_occ = path.occurrences();
  const OccurrenceIndex& side_occ = side.occurrences();
  std::size_t var_bound = std::max(path_occ.var_bound(), side_occ.var_bound());
  for (const Term& t : negated.expr.terms()) {
    var_bound = std::max(var_bound, static_cast<std::size_t>(t.var) + 1);
  }
  // Per variable: kUnseen, kQueued, or the order it was expanded in.
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  constexpr std::uint32_t kQueued = kUnseen - 1;
  std::vector<std::uint32_t>& state = dense_of;
  state.assign(var_bound, kUnseen);

  Slice slice;
  slice.touched = 1;  // the negation
  std::vector<Var>& work = slice.vars;  // the BFS queue, in visit order
  const auto enqueue_vars = [&](const Predicate& p) {
    for (const Term& t : p.expr.terms()) {
      std::uint32_t& st = state[static_cast<std::size_t>(t.var)];
      if (st == kUnseen) {
        st = kQueued;
        work.push_back(t.var);
      }
    }
  };
  const auto is_new = [&](const Predicate& p, std::uint32_t order) {
    for (const Term& t : p.expr.terms()) {
      if (state[static_cast<std::size_t>(t.var)] < order) return false;
    }
    return true;
  };
  enqueue_vars(negated);
  for (std::uint32_t order = 0; order < work.size(); ++order) {
    const Var v = work[order];
    state[static_cast<std::size_t>(v)] = order;
    const std::span<const std::uint32_t> occ = path_occ.of(v);
    const auto below = std::lower_bound(occ.begin(), occ.end(),
                                        static_cast<std::uint32_t>(depth));
    slice.touched += static_cast<std::size_t>(below - occ.begin()) +
                     side_occ.of(v).size();
    for (auto it = occ.begin(); it != below; ++it) {
      const Predicate& p = path.predicate(*it);
      if (!is_new(p, order)) continue;
      slice.path.push_back(*it);
      enqueue_vars(p);
    }
    for (std::uint32_t i : side_occ.of(v)) {
      const Predicate& p = side.predicate(i);
      if (!is_new(p, order)) continue;
      slice.side.push_back(i);
      enqueue_vars(p);
    }
  }
  std::sort(slice.path.begin(), slice.path.end());
  std::sort(slice.side.begin(), slice.side.end());
  std::sort(slice.vars.begin(), slice.vars.end());
  for (std::uint32_t i = 0; i < slice.vars.size(); ++i) {
    dense_of[static_cast<std::size_t>(slice.vars[i])] = i;
  }
  return slice;
}

}  // namespace

Slice Solver::dependency_slice(const ConstraintStore& path, std::size_t depth,
                               const ConstraintStore& side,
                               const Predicate& negated) {
  std::vector<std::uint32_t> dense_of;
  return find_slice(path, depth, side, negated, dense_of);
}

SolveResult Solver::solve_incremental(const ConstraintStore& path,
                                      std::size_t depth,
                                      const ConstraintStore& side,
                                      const Predicate& negated,
                                      const DomainMap& domains,
                                      const Assignment& previous,
                                      SolveCache* cache) const {
  obs::ObsSpan span(obs::Cat::kSolver, "solve_incremental", "constraints",
                    static_cast<std::int64_t>(depth + side.size() + 1));
  SolveResult result;
  std::vector<std::uint32_t> dense_of;  // Var -> dense id, slice vars only
  const Slice slice = find_slice(path, depth, side, negated, dense_of);
  result.slice_size = slice.size();

  // The slice on dense ids: path entries, side predicates, the negation.
  DenseSystem sys;
  sys.vars = slice.vars;
  std::size_t nterms = negated.expr.num_terms();
  for (std::uint32_t i : slice.path) {
    nterms += path.predicate(i).expr.num_terms();
  }
  for (std::uint32_t i : slice.side) {
    nterms += side.predicate(i).expr.num_terms();
  }
  sys.terms.reserve(nterms);
  sys.preds.reserve(slice.size());
  const auto dense = [&dense_of](Var v) {
    return dense_of[static_cast<std::size_t>(v)];
  };
  for (std::uint32_t i : slice.path) sys.add(path.predicate(i), dense);
  for (std::uint32_t i : slice.side) sys.add(side.predicate(i), dense);
  sys.add(negated, dense);
  std::vector<Interval> sub_domains = sys.domains_from(domains);

  NormalizedSlice norm;
  if (cache != nullptr) {
    norm = normalize_slice(sys, sub_domains, previous);
    CachedSolve hit;
    if (cache->lookup(norm.key, &hit)) {
      result.cache_hit = true;
      span.set_arg("nodes", 0);
      if (!hit.sat) return result;  // proven UNSAT
      std::vector<std::pair<Var, std::int64_t>> model;
      model.reserve(norm.vars.size());
      for (std::size_t i = 0; i < norm.vars.size(); ++i) {
        model.emplace_back(norm.vars[i], hit.values[i]);
      }
      merge_model(previous, model, result);
      return result;
    }
  }

  const std::optional<std::vector<std::int64_t>> solved =
      search_dense(sys, std::move(sub_domains), previous, opts_,
                   &result.budget_exhausted, &result.nodes_searched);
  span.set_arg("nodes", result.nodes_searched);

  // Memoize definitive verdicts only: a budget-bound "unknown" may flip
  // under a relaxed budget and must never be replayed as an answer.
  if (cache != nullptr && (solved.has_value() || !result.budget_exhausted)) {
    CachedSolve entry;
    entry.sat = solved.has_value();
    entry.nodes_searched = result.nodes_searched;
    if (solved) {
      entry.values.reserve(norm.vars.size());
      for (Var v : norm.vars) entry.values.push_back((*solved)[dense(v)]);
    }
    cache->insert(norm.key, std::move(entry));
  }
  if (!solved) return result;  // UNSAT / budget exhausted

  std::vector<std::pair<Var, std::int64_t>> model;
  model.reserve(sys.vars.size());
  for (std::size_t i = 0; i < sys.vars.size(); ++i) {
    model.emplace_back(sys.vars[i], (*solved)[i]);
  }
  merge_model(previous, model, result);
  return result;
}

}  // namespace compi::solver
