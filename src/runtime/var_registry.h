// Registry of symbolic variables, persistent across testing iterations.
//
// Marked inputs (paper: developer-marked variables plus the automatically
// marked MPI-semantics variables of Table I) are identified by a stable
// string key; the registry interns keys to dense solver variable ids and
// remembers each variable's kind, declared domain, and input cap (§IV-A).
// The driver owns one registry for a whole testing campaign so that
// variable ids stay stable from one iteration to the next.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "solver/interval.h"
#include "solver/linear_expr.h"

namespace compi::rt {

using solver::Var;

/// What a symbolic variable denotes (paper Table I).
enum class VarKind : std::uint8_t {
  kRegular,    // developer-marked program input
  kRankWorld,  // rw: global rank in MPI_COMM_WORLD
  kRankLocal,  // rc: local rank in some other communicator
  kSizeWorld,  // sw: size of MPI_COMM_WORLD
};

[[nodiscard]] const char* to_string(VarKind k);

struct VarMeta {
  std::string key;
  VarKind kind = VarKind::kRegular;
  solver::Interval domain = solver::int32_domain();
  std::optional<std::int64_t> cap;  // input capping upper bound, if any
  int comm_index = -1;              // for kRankLocal: creation order index
};

/// Thread-safe: during one execution every rank (thread) interns the same
/// SPMD marking sequence concurrently.
class VarRegistry {
 public:
  /// Interns `key`, creating the variable on first use.  Later calls ignore
  /// the metadata arguments (first marking wins), matching the one-time
  /// nature of instrumentation-site attributes.
  Var intern(std::string_view key, VarKind kind,
             solver::Interval domain = solver::int32_domain(),
             std::optional<std::int64_t> cap = std::nullopt,
             int comm_index = -1);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] VarMeta meta(Var v) const;
  [[nodiscard]] std::vector<VarMeta> all() const;
  /// The variables with id >= `start`, in id order: a sync's suffix,
  /// copied without copying the prefix.
  [[nodiscard]] std::vector<VarMeta> metas_from(std::size_t start) const;

  /// Effective solver domain of `v`: declared domain intersected with the
  /// cap constraint `v <= cap` when present.
  [[nodiscard]] solver::Interval effective_domain(Var v) const;

  /// All variables of a given kind.
  [[nodiscard]] std::vector<Var> of_kind(VarKind k) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, Var> by_key_;
  std::vector<VarMeta> metas_;
};

}  // namespace compi::rt
