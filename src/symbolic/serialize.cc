#include "symbolic/serialize.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

namespace compi::serial {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out.push_back(s[i]);
      continue;
    }
    switch (s[++i]) {
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      default: out.push_back(s[i]);
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

void write_predicate(std::ostream& os, const solver::Predicate& p) {
  os << static_cast<int>(p.op) << ' ' << p.expr.constant_part() << ' '
     << p.expr.num_terms();
  for (const solver::Term& t : p.expr.terms()) {
    os << ' ' << t.var << ' ' << t.coeff;
  }
}

bool read_predicate(std::istream& is, solver::Predicate& p,
                    std::size_t num_vars) {
  int op = 0;
  std::int64_t constant = 0;
  std::size_t nterms = 0;
  if (!(is >> op >> constant >> nterms) || op < 0 ||
      op > static_cast<int>(solver::CompareOp::kGe)) {
    return false;
  }
  solver::LinearExpr expr(constant);
  for (std::size_t i = 0; i < nterms; ++i) {
    solver::Var v = 0;
    std::int64_t coeff = 0;
    if (!(is >> v >> coeff) || v < 0 ||
        static_cast<std::size_t>(v) >= num_vars) {
      return false;
    }
    expr.add_term(v, coeff);
  }
  p.expr = std::move(expr);
  p.op = static_cast<solver::CompareOp>(op);
  return true;
}

void write_path(std::ostream& os, const sym::Path& path) {
  os << path.size() << '\n';
  for (const sym::PathEntry& e : path.entries()) {
    os << e.site << ' ' << (e.taken ? 1 : 0) << ' ';
    write_predicate(os, e.constraint);
    os << '\n';
  }
}

bool read_path(std::istream& is, sym::Path& path, std::size_t num_vars) {
  std::size_t n = 0;
  if (!(is >> n)) return false;
  path.clear();
  for (std::size_t i = 0; i < n; ++i) {
    sym::SiteId site = 0;
    int taken = 0;
    solver::Predicate p;
    if (!(is >> site >> taken) || !read_predicate(is, p, num_vars)) {
      return false;
    }
    path.append(site, taken != 0, std::move(p));
  }
  return true;
}

bool expect(std::istream& is, std::string_view tag) {
  std::string tok;
  if (!(is >> tok) || tok != tag) {
    is.setstate(std::ios::failbit);
    return false;
  }
  return true;
}

std::string read_tail(std::istream& is) {
  std::string line;
  if (is.peek() == ' ') is.get();
  std::getline(is, line);
  return line;
}

void write_assignment(std::ostream& os, const solver::Assignment& a) {
  os << a.size();
  std::vector<std::pair<solver::Var, std::int64_t>> entries(a.begin(),
                                                            a.end());
  std::sort(entries.begin(), entries.end());
  for (const auto& [v, value] : entries) os << ' ' << v << ' ' << value;
}

bool read_assignment(std::istream& is, solver::Assignment& a) {
  std::size_t n = 0;
  if (!(is >> n)) return false;
  a.clear();
  // A corrupted (bit-flipped) count must fail at parse time, not drive a
  // multi-gigabyte allocation; the loop itself stops at EOF.
  a.reserve(std::min<std::size_t>(n, 1u << 20));
  for (std::size_t i = 0; i < n; ++i) {
    solver::Var v = 0;
    std::int64_t value = 0;
    if (!(is >> v >> value)) return false;
    a[v] = value;
  }
  return true;
}

}  // namespace compi::serial
