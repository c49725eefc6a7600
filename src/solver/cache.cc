#include "solver/cache.h"

#include <algorithm>

namespace compi::solver {

SolveCache::SolveCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

bool SolveCache::lookup(const std::string& key, CachedSolve* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  entries_.splice(entries_.begin(), entries_, it->second);
  ++hits_;
  *out = entries_.front().second;
  return true;
}

void SolveCache::insert(const std::string& key, CachedSolve value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Two workers raced on the same miss: both computed the same
    // deterministic answer, keep the incumbent.
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  entries_.emplace_front(key, std::move(value));
  index_[key] = entries_.begin();
  while (entries_.size() > capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
    ++evictions_;
  }
}

std::size_t SolveCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

namespace {

void append_int(std::string& out, std::int64_t v) {
  out += std::to_string(v);
  out.push_back(',');
}

}  // namespace

NormalizedSlice normalize_slice(
    const DenseSystem& slice, const std::vector<Interval>& domains,
    const std::unordered_map<Var, std::int64_t>& prefer) {
  NormalizedSlice out;
  // Canonical ids in first-occurrence order over the predicates' term
  // lists; terms within a predicate are sorted by Var, so the order is a
  // deterministic function of the slice alone.
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<std::size_t> canon(slice.vars.size(), kUnseen);
  std::vector<std::uint32_t> dense;  // canonical id -> dense id
  for (const DenseSystem::Term& t : slice.terms) {
    if (canon[t.var] == kUnseen) {
      canon[t.var] = dense.size();
      dense.push_back(t.var);
      out.vars.push_back(slice.vars[t.var]);
    }
  }
  out.key.reserve(slice.preds.size() * 24 + out.vars.size() * 32);
  for (const DenseSystem::Pred& p : slice.preds) {
    out.key.push_back('P');
    append_int(out.key, static_cast<std::int64_t>(p.op));
    append_int(out.key, p.constant);
    for (std::uint32_t k = p.begin; k < p.end; ++k) {
      append_int(out.key, static_cast<std::int64_t>(canon[slice.terms[k].var]));
      append_int(out.key, slice.terms[k].coeff);
    }
    out.key.push_back(';');
  }
  for (std::size_t i = 0; i < out.vars.size(); ++i) {
    const Interval dom = domains[dense[i]];
    out.key.push_back('D');
    append_int(out.key, dom.lo);
    append_int(out.key, dom.hi);
    // The preferred value steers candidate enumeration, so it is part of
    // the query's identity; 'n' marks "no previous value".
    auto it = prefer.find(out.vars[i]);
    if (it != prefer.end()) {
      out.key.push_back('A');
      append_int(out.key, it->second);
    } else {
      out.key.push_back('n');
    }
    out.key.push_back(';');
  }
  return out;
}

}  // namespace compi::solver
