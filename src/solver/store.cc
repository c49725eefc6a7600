#include "solver/store.h"

namespace compi::solver {

void OccurrenceIndex::add(std::uint32_t index, const LinearExpr& expr) {
  for (const Term& t : expr.terms()) {
    const auto v = static_cast<std::size_t>(t.var);
    if (v >= lists_.size()) lists_.resize(v + 1);
    lists_[v].push_back(index);
  }
}

PredicateStore::PredicateStore(std::vector<Predicate> preds)
    : preds_(std::move(preds)) {
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    occ_.add(static_cast<std::uint32_t>(i), preds_[i].expr);
  }
}

void PredicateStore::push_back(Predicate p) {
  occ_.add(static_cast<std::uint32_t>(preds_.size()), p.expr);
  preds_.push_back(std::move(p));
}

}  // namespace compi::solver
