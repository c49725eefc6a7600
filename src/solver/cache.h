// Solver memoization: normalized dependency-slice -> SolveResult.
//
// Concolic campaigns re-issue near-identical incremental queries
// constantly: a restart replays the same sanity-check prefix, and parallel
// workers flip neighbouring branches of the same path, producing dependency
// slices that differ only in variable ids.  The cache canonicalizes a slice
// (variables renamed in first-occurrence order, predicates in slice order,
// each variable's solve domain and preferred value appended) into a string
// key, so any two queries that the solver would answer identically share
// one entry regardless of which worker — or which registry's variable
// numbering — produced them.
//
// Only *definitive* answers are cached: a SAT model, or an UNSAT proof
// reached without tripping the node budget.  Budget-exhausted verdicts are
// "unknown" (a relaxed-budget retry may flip them) and are never stored.
// Because the key includes the preferred (previous) values of every slice
// variable, a hit reproduces the exact model the deterministic search would
// have found — cache-on and cache-off campaigns return bit-identical
// SolveResults (the property-based suite asserts this equivalence).
//
// The cache is LRU-bounded and internally locked: parallel workers share
// one instance.  Hit/miss/eviction counts feed the obs metrics registry
// (compi_solver_cache_{hits,misses,evictions}_total in metrics.prom).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "solver/predicate.h"
#include "solver/propagation.h"

namespace compi::solver {

/// The canonicalized form of one incremental query's dependency slice.
struct NormalizedSlice {
  /// Cache key: predicates with canonical variable ids, plus per-variable
  /// domain and preferred value, rendered deterministically.
  std::string key;
  /// canonical id (index) -> original Var, in first-occurrence order over
  /// the slice predicates.  Denormalizes a cached model back into the
  /// caller's variable numbering.
  std::vector<Var> vars;
};

/// What a definitive solve stored: the verdict plus the model in canonical
/// variable ids (values[i] belongs to canonical variable i).
struct CachedSolve {
  bool sat = false;
  std::vector<std::int64_t> values;  // canonical ids; empty when UNSAT
  std::int64_t nodes_searched = 0;   // what the original search cost
};

class SolveCache {
 public:
  /// `capacity` = maximum entries held; least-recently-used entries are
  /// evicted past it.  0 behaves like capacity 1.
  explicit SolveCache(std::size_t capacity);

  /// Looks up a normalized key; promotes the entry to most-recently-used.
  [[nodiscard]] bool lookup(const std::string& key, CachedSolve* out);

  /// Stores a definitive result (idempotent for an existing key).
  void insert(const std::string& key, CachedSolve value);

  // Counter accessors lock like everything else: the live control plane
  // reads them from the server thread while workers are mid-lookup.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::int64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  [[nodiscard]] std::int64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  [[nodiscard]] std::int64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  /// Most-recently-used first.
  std::list<std::pair<std::string, CachedSolve>> entries_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, CachedSolve>>::iterator>
      index_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

/// Canonicalizes one dependency slice: `slice`'s predicates in order, each
/// variable's solve domain (`domains`, by dense id) and its preferred value
/// from `prefer` (absent entries rendered distinctly — preference changes
/// the deterministic search order, so it is part of the identity).
[[nodiscard]] NormalizedSlice normalize_slice(
    const DenseSystem& slice, const std::vector<Interval>& domains,
    const std::unordered_map<Var, std::int64_t>& prefer);

}  // namespace compi::solver
