// Low-level text serialization shared by the on-disk formats: the
// campaign checkpoint and the session files speak the same line-oriented
// dialect.  (The sandbox pipes carry binary payloads instead; see
// sandbox/wire.h.)
//
// Strings are escaped (\n, \r, \\) so multi-line fault messages fit on one
// line; doubles use shortest-round-trip formatting so restored timings are
// bit-exact; predicates and paths round-trip through the same two helpers
// everywhere, keeping the formats mutually consistent.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

#include "solver/predicate.h"
#include "solver/solver.h"
#include "symbolic/path.h"

namespace compi::serial {

/// Escapes backslashes and line breaks so any string fits on one line.
[[nodiscard]] std::string escape(std::string_view s);
[[nodiscard]] std::string unescape(std::string_view s);

/// Shortest string that parses back to exactly `v`.
[[nodiscard]] std::string format_double(double v);

/// Bounds no variable id beyond the id type itself.
inline constexpr std::size_t kAnyVar =
    static_cast<std::size_t>(std::numeric_limits<solver::Var>::max()) + 1;

/// One-line predicate / multi-line path round-trips.  A read fails on a
/// comparison outside CompareOp and on a variable outside [0, num_vars):
/// a path indexes its entries by variable, so a corrupt id must not reach
/// it.
void write_predicate(std::ostream& os, const solver::Predicate& p);
[[nodiscard]] bool read_predicate(std::istream& is, solver::Predicate& p,
                                  std::size_t num_vars = kAnyVar);
void write_path(std::ostream& os, const sym::Path& path);
[[nodiscard]] bool read_path(std::istream& is, sym::Path& path,
                             std::size_t num_vars = kAnyVar);

/// Expects the next whitespace-delimited token to equal `tag`; poisons the
/// stream otherwise.
bool expect(std::istream& is, std::string_view tag);
/// Reads the rest of the line (after one separating space) as a string.
std::string read_tail(std::istream& is);

/// Input assignment as "<n> <var> <value>...", sorted by variable id so
/// the text is canonical (diff-able).
void write_assignment(std::ostream& os, const solver::Assignment& a);
[[nodiscard]] bool read_assignment(std::istream& is, solver::Assignment& a);

}  // namespace compi::serial
