#include "sandbox/wire.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "symbolic/serialize.h"

namespace compi::sandbox {

namespace {

using serial::expect;
using serial::read_assignment;
using serial::read_tail;
using serial::write_assignment;

/// Ceiling on a single frame payload; anything larger is a corrupt header
/// (a torn write interleaved into the stream), not a real frame.
constexpr std::size_t kMaxFramePayload = 256u * 1024 * 1024;

/// Every FrameType tag: the reader's valid set.
constexpr char kFrameTags[] = {
    static_cast<char>(FrameType::kResult),
    static_cast<char>(FrameType::kError),
    static_cast<char>(FrameType::kSignal),
    static_cast<char>(FrameType::kRegistry),
    static_cast<char>(FrameType::kSpawn),
    static_cast<char>(FrameType::kHello),
    static_cast<char>(FrameType::kStatus),
    static_cast<char>(FrameType::kDone),
    '\0'};

std::optional<rt::Outcome> read_outcome(std::istream& is) {
  std::string tok;
  if (!(is >> tok)) return std::nullopt;
  return rt::outcome_from_string(tok);
}

}  // namespace

void append_frame(std::string& out, FrameType type,
                  std::string_view payload) {
  serve::append_wire_frame(out, static_cast<char>(type), payload);
}

FrameReader::FrameReader() : reader_(kFrameTags, kMaxFramePayload) {}

std::optional<Frame> FrameReader::next() {
  std::optional<serve::WireFrame> f = reader_.next();
  if (!f) return std::nullopt;
  return Frame{static_cast<FrameType>(f->type), std::move(f->payload)};
}

void write_test_log(std::ostream& os, const rt::TestLog& log) {
  os << "log " << (log.heavy ? 1 : 0) << ' ' << log.rank << ' '
     << log.nprocs << ' ' << rt::to_string(log.outcome) << '\n';
  os << "msg " << serial::escape(log.outcome_message) << '\n';
  const std::vector<sym::BranchId> ids = log.covered.covered_ids();
  os << "covered " << log.covered.size() << ' ' << ids.size();
  for (sym::BranchId b : ids) os << ' ' << b;
  os << '\n';
  os << "path ";
  serial::write_path(os, log.path);
  os << "btrace " << log.branch_trace.size();
  for (sym::BranchId b : log.branch_trace) os << ' ' << b;
  os << '\n';
  os << "ops " << log.op_count << '\n';
  os << "inputs ";
  write_assignment(os, log.inputs_used);
  os << '\n';
  os << "comm_sizes " << log.comm_sizes.size();
  for (std::int64_t s : log.comm_sizes) os << ' ' << s;
  os << '\n';
  os << "mappings " << log.rank_mapping.size() << '\n';
  for (const std::vector<int>& row : log.rank_mapping) {
    os << "mapping " << row.size();
    for (int g : row) os << ' ' << g;
    os << '\n';
  }
  os << "end_log\n";
}

bool read_test_log(std::istream& is, rt::TestLog& log) {
  int heavy = 0;
  if (!expect(is, "log") || !(is >> heavy >> log.rank >> log.nprocs)) {
    return false;
  }
  log.heavy = heavy != 0;
  const auto outcome = read_outcome(is);
  if (!outcome) return false;
  log.outcome = *outcome;
  if (!expect(is, "msg")) return false;
  log.outcome_message = serial::unescape(read_tail(is));

  std::size_t bitmap_size = 0;
  std::size_t n = 0;
  if (!expect(is, "covered") || !(is >> bitmap_size >> n)) return false;
  log.covered = rt::CoverageBitmap(bitmap_size);
  for (std::size_t i = 0; i < n; ++i) {
    sym::BranchId b = 0;
    if (!(is >> b)) return false;
    log.covered.mark(b);
  }

  if (!expect(is, "path") || !serial::read_path(is, log.path)) return false;

  if (!expect(is, "btrace") || !(is >> n)) return false;
  log.branch_trace.clear();
  log.branch_trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sym::BranchId b = 0;
    if (!(is >> b)) return false;
    log.branch_trace.push_back(b);
  }

  if (!expect(is, "ops") || !(is >> log.op_count)) return false;
  if (!expect(is, "inputs") || !read_assignment(is, log.inputs_used)) {
    return false;
  }

  if (!expect(is, "comm_sizes") || !(is >> n)) return false;
  log.comm_sizes.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> log.comm_sizes[i])) return false;
  }

  if (!expect(is, "mappings") || !(is >> n)) return false;
  log.rank_mapping.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t row = 0;
    if (!expect(is, "mapping") || !(is >> row)) return false;
    log.rank_mapping[i].assign(row, 0);
    for (std::size_t j = 0; j < row; ++j) {
      if (!(is >> log.rank_mapping[i][j])) return false;
    }
  }
  return expect(is, "end_log");
}

std::string encode_run_result(const minimpi::RunResult& run) {
  // The measured wall time goes out at a fixed width (17 significant
  // digits, an exact round trip), so the frame's length, which the
  // campaign sums into sandbox_harvest_bytes, does not follow the host's
  // timing.
  char wall[32];
  const char* wall_end =
      std::to_chars(wall, wall + sizeof wall, run.wall_seconds,
                    std::chars_format::scientific, 16)
          .ptr;
  std::ostringstream os;
  os << "run " << run.focus << ' ' << std::string_view(wall, wall_end - wall)
     << ' ' << run.ranks.size() << '\n';
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    const minimpi::RankResult& rank = run.ranks[r];
    os << "rank " << r << ' ' << rt::to_string(rank.outcome) << '\n';
    os << "rmsg " << serial::escape(rank.message) << '\n';
    write_test_log(os, rank.log);
  }
  // Wildcard decision trace (empty when no wildcard receive matched).  Both
  // sides of the pipe are the same binary, so growing the format needs no
  // compatibility shim.
  os << "matches " << run.match_trace.size() << ' '
     << (run.match_diverged ? 1 : 0) << '\n';
  for (const minimpi::MatchRecord& m : run.match_trace) {
    os << "match " << m.rank << ' ' << m.seq << ' ' << m.chosen_src << ' '
       << m.comm_uid << ' ' << m.tag << ' ' << m.feasible.size();
    for (int f : m.feasible) os << ' ' << f;
    os << '\n';
  }
  os << "end_run\n";
  return os.str();
}

bool decode_run_result(std::string_view payload, minimpi::RunResult& out) {
  std::istringstream is{std::string(payload)};
  std::size_t nranks = 0;
  std::string wall;
  if (!expect(is, "run") || !(is >> out.focus >> wall >> nranks)) {
    return false;
  }
  try {
    out.wall_seconds = std::stod(wall);
  } catch (...) {
    return false;
  }
  out.ranks.assign(nranks, {});
  for (std::size_t r = 0; r < nranks; ++r) {
    std::size_t idx = 0;
    if (!expect(is, "rank") || !(is >> idx) || idx != r) return false;
    const auto outcome = read_outcome(is);
    if (!outcome) return false;
    out.ranks[r].outcome = *outcome;
    if (!expect(is, "rmsg")) return false;
    out.ranks[r].message = serial::unescape(read_tail(is));
    if (!read_test_log(is, out.ranks[r].log)) return false;
  }
  std::size_t nmatches = 0;
  int diverged = 0;
  if (!expect(is, "matches") || !(is >> nmatches >> diverged)) return false;
  out.match_diverged = diverged != 0;
  out.match_trace.clear();
  out.match_trace.reserve(std::min<std::size_t>(nmatches, 1u << 20));
  for (std::size_t i = 0; i < nmatches; ++i) {
    minimpi::MatchRecord m;
    std::size_t nfeasible = 0;
    if (!expect(is, "match") ||
        !(is >> m.rank >> m.seq >> m.chosen_src >> m.comm_uid >> m.tag >>
          nfeasible)) {
      return false;
    }
    m.feasible.assign(nfeasible, 0);
    for (std::size_t j = 0; j < nfeasible; ++j) {
      if (!(is >> m.feasible[j])) return false;
    }
    out.match_trace.push_back(std::move(m));
  }
  return expect(is, "end_run");
}

namespace {

std::string encode_registry_from(const rt::VarRegistry& registry,
                                 std::size_t start) {
  std::ostringstream os;
  const std::vector<rt::VarMeta> metas = registry.all();
  const std::size_t first = std::min(start, metas.size());
  os << "registry " << (metas.size() - first) << '\n';
  for (std::size_t i = first; i < metas.size(); ++i) {
    const rt::VarMeta& m = metas[i];
    os << "var " << static_cast<int>(m.kind) << ' ' << m.domain.lo << ' '
       << m.domain.hi << ' ';
    if (m.cap) {
      os << *m.cap;
    } else {
      os << "none";
    }
    os << ' ' << m.comm_index << ' ' << serial::escape(m.key) << '\n';
  }
  os << "end_registry\n";
  return os.str();
}

}  // namespace

std::string encode_registry(const rt::VarRegistry& registry) {
  return encode_registry_from(registry, 0);
}

std::string encode_registry_suffix(const rt::VarRegistry& registry,
                                   std::size_t start) {
  return encode_registry_from(registry, start);
}

bool apply_registry(std::string_view payload, rt::VarRegistry& registry) {
  std::istringstream is{std::string(payload)};
  std::size_t n = 0;
  if (!expect(is, "registry") || !(is >> n)) return false;
  for (std::size_t i = 0; i < n; ++i) {
    rt::VarMeta m;
    int kind = 0;
    std::string cap;
    if (!expect(is, "var") ||
        !(is >> kind >> m.domain.lo >> m.domain.hi >> cap >> m.comm_index)) {
      return false;
    }
    m.kind = static_cast<rt::VarKind>(kind);
    std::optional<std::int64_t> cap_value;
    if (cap != "none") {
      try {
        cap_value = std::stoll(cap);
      } catch (...) {
        return false;
      }
    }
    m.key = serial::unescape(read_tail(is));
    registry.intern(m.key, m.kind, m.domain, cap_value, m.comm_index);
  }
  return expect(is, "end_registry");
}

std::string encode_spawn_request(const SpawnRequest& req) {
  std::ostringstream os;
  os << "spawn " << req.nprocs << ' ' << req.focus << ' '
     << (req.one_way ? 1 : 0) << ' ' << req.rng_seed << ' '
     << req.step_budget << ' ' << (req.reduction ? 1 : 0) << ' '
     << (req.mark_mpi_vars ? 1 : 0) << ' ' << req.timeout_ms << ' '
     << req.hang_ms << ' ' << req.track_base << '\n';
  os << "inputs ";
  write_assignment(os, req.inputs);
  os << '\n';
  os << "chaos " << req.chaos.seed << ' '
     << serial::format_double(req.chaos.drop_rate) << ' '
     << serial::format_double(req.chaos.delay_rate) << ' '
     << req.chaos.delay.count() << ' ' << req.chaos.crash_rank << ' '
     << req.chaos.crash_at_call << ' '
     << rt::to_string(req.chaos.crash_outcome) << ' ' << req.chaos.stall_rank
     << ' ' << req.chaos.stall_at_collective << '\n';
  os << "plan " << req.match_plan.size() << '\n';
  for (const minimpi::MatchDecision& d : req.match_plan) {
    os << "d " << d.rank << ' ' << d.seq << ' ' << d.src << '\n';
  }
  os << "end_spawn\n";
  return os.str();
}

bool decode_spawn_request(std::string_view payload, SpawnRequest& out) {
  std::istringstream is{std::string(payload)};
  int one_way = 0, reduction = 0, mark = 0;
  if (!expect(is, "spawn") ||
      !(is >> out.nprocs >> out.focus >> one_way >> out.rng_seed >>
        out.step_budget >> reduction >> mark >> out.timeout_ms >>
        out.hang_ms >> out.track_base)) {
    return false;
  }
  out.one_way = one_way != 0;
  out.reduction = reduction != 0;
  out.mark_mpi_vars = mark != 0;
  if (!expect(is, "inputs") || !read_assignment(is, out.inputs)) return false;

  std::string drop, delay_rate;
  std::int64_t delay_ms = 0;
  if (!expect(is, "chaos") ||
      !(is >> out.chaos.seed >> drop >> delay_rate >> delay_ms >>
        out.chaos.crash_rank >> out.chaos.crash_at_call)) {
    return false;
  }
  const auto crash_outcome = read_outcome(is);
  if (!crash_outcome ||
      !(is >> out.chaos.stall_rank >> out.chaos.stall_at_collective)) {
    return false;
  }
  out.chaos.crash_outcome = *crash_outcome;
  try {
    out.chaos.drop_rate = std::stod(drop);
    out.chaos.delay_rate = std::stod(delay_rate);
  } catch (...) {
    return false;
  }
  out.chaos.delay = std::chrono::milliseconds(delay_ms);

  std::size_t n = 0;
  if (!expect(is, "plan") || !(is >> n)) return false;
  out.match_plan.clear();
  out.match_plan.reserve(std::min<std::size_t>(n, 1u << 20));
  for (std::size_t i = 0; i < n; ++i) {
    minimpi::MatchDecision d;
    if (!expect(is, "d") || !(is >> d.rank >> d.seq >> d.src)) return false;
    out.match_plan.push_back(d);
  }
  return expect(is, "end_spawn");
}

}  // namespace compi::sandbox
