#include "compi/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace compi::ckpt {

namespace {

std::optional<rt::Outcome> read_outcome(std::istream& is) {
  std::string tok;
  if (!(is >> tok)) return std::nullopt;
  return rt::outcome_from_string(tok);
}

/// Reserve clamp for counts read from disk: a corrupted (bit-flipped)
/// count must fail at parse time, not drive a multi-gigabyte allocation.
/// The read loops themselves stop at EOF, so only reserve() needs guarding.
constexpr std::size_t kMaxSaneReserve = 1 << 20;

void write_registry(std::ostream& os,
                    const std::vector<rt::VarMeta>& registry) {
  os << "cursor_registry " << registry.size() << '\n';
  for (const rt::VarMeta& m : registry) {
    os << "var " << static_cast<int>(m.kind) << ' ' << m.domain.lo << ' '
       << m.domain.hi << ' ';
    if (m.cap) {
      os << *m.cap;
    } else {
      os << "none";
    }
    os << ' ' << m.comm_index << ' ' << escape(m.key) << '\n';
  }
}

bool read_registry(std::istream& is, std::vector<rt::VarMeta>& registry) {
  std::size_t n = 0;
  if (!expect(is, "cursor_registry") || !(is >> n)) return false;
  registry.reserve(std::min(n, kMaxSaneReserve));
  for (std::size_t i = 0; i < n; ++i) {
    rt::VarMeta m;
    int kind = 0;
    std::string cap;
    if (!expect(is, "var") ||
        !(is >> kind >> m.domain.lo >> m.domain.hi >> cap >> m.comm_index)) {
      return false;
    }
    m.kind = static_cast<rt::VarKind>(kind);
    if (cap != "none") {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(cap.data(), cap.data() + cap.size(), value);
      if (ec != std::errc{} || ptr != cap.data() + cap.size()) return false;
      m.cap = value;
    }
    m.key = unescape(read_tail(is));
    registry.push_back(std::move(m));
  }
  return true;
}

void write_pending(std::ostream& os, const WorkerCursor& w) {
  os << "cursor_pending " << w.pending_interleavings.size() << ' '
     << w.next_interleaving_id << '\n';
  for (const PendingInterleaving& p : w.pending_interleavings) {
    os << "pend " << p.id << ' ' << p.nprocs << ' ' << p.focus << ' '
       << p.plan.size();
    for (const minimpi::MatchDecision& d : p.plan) {
      os << ' ' << d.rank << ' ' << d.seq << ' ' << d.src;
    }
    os << ' ';
    write_assignment(os, p.inputs);
    os << '\n';
  }
}

bool read_pending(std::istream& is, WorkerCursor& w) {
  std::size_t n = 0;
  if (!expect(is, "cursor_pending") || !(is >> n >> w.next_interleaving_id)) {
    return false;
  }
  w.pending_interleavings.reserve(std::min(n, kMaxSaneReserve));
  for (std::size_t i = 0; i < n; ++i) {
    PendingInterleaving p;
    std::size_t plan_size = 0;
    if (!expect(is, "pend") ||
        !(is >> p.id >> p.nprocs >> p.focus >> plan_size)) {
      return false;
    }
    p.plan.reserve(std::min(plan_size, kMaxSaneReserve));
    for (std::size_t j = 0; j < plan_size; ++j) {
      minimpi::MatchDecision d;
      if (!(is >> d.rank >> d.seq >> d.src)) return false;
      p.plan.push_back(d);
    }
    if (!read_assignment(is, p.inputs)) return false;
    w.pending_interleavings.push_back(std::move(p));
  }
  return true;
}

}  // namespace

void write_blob(std::ostream& os, std::string_view tag,
                const std::string& blob) {
  std::size_t lines = 0;
  for (char c : blob) lines += c == '\n' ? 1 : 0;
  if (!blob.empty() && blob.back() != '\n') ++lines;
  os << tag << ' ' << lines << '\n';
  os << blob;
  if (!blob.empty() && blob.back() != '\n') os << '\n';
}

bool read_blob(std::istream& is, std::string_view tag, std::string& blob) {
  std::size_t n = 0;
  if (!expect(is, tag) || !(is >> n)) return false;
  is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  std::ostringstream body;
  for (std::size_t i = 0; i < n; ++i) {
    std::string line;
    if (!std::getline(is, line)) return false;
    body << line << '\n';
  }
  blob = body.str();
  return true;
}

void write_bug(std::ostream& os, const BugRecord& b) {
  os << "bug " << b.first_iteration << ' ' << b.occurrences << ' '
     << rt::to_string(b.outcome) << ' ' << b.nprocs << ' ' << b.focus << ' '
     << (b.flaky ? 1 : 0) << '\n';
  os << "msg " << escape(b.message) << '\n';
  os << "inputs ";
  write_assignment(os, b.inputs);
  os << '\n';
  os << "named " << b.named_inputs.size() << '\n';
  for (const auto& [key, value] : b.named_inputs) {
    os << value << ' ' << escape(key) << '\n';
  }
  os << "decisions " << b.decisions.size();
  for (const minimpi::MatchDecision& d : b.decisions) {
    os << ' ' << d.rank << ' ' << d.seq << ' ' << d.src;
  }
  os << '\n';
}

bool read_bug(std::istream& is, BugRecord& b) {
  int flag = 0;
  if (!expect(is, "bug") || !(is >> b.first_iteration >> b.occurrences)) {
    return false;
  }
  const auto outcome = read_outcome(is);
  if (!outcome) return false;
  b.outcome = *outcome;
  if (!(is >> b.nprocs >> b.focus >> flag)) return false;
  b.flaky = flag != 0;
  if (!expect(is, "msg")) return false;
  b.message = unescape(read_tail(is));
  if (!expect(is, "inputs") || !read_assignment(is, b.inputs)) return false;
  std::size_t named = 0;
  if (!expect(is, "named") || !(is >> named)) return false;
  for (std::size_t j = 0; j < named; ++j) {
    std::int64_t value = 0;
    if (!(is >> value)) return false;
    b.named_inputs[unescape(read_tail(is))] = value;
  }
  std::size_t ndecisions = 0;
  if (!expect(is, "decisions") || !(is >> ndecisions)) return false;
  b.decisions.reserve(std::min(ndecisions, kMaxSaneReserve));
  for (std::size_t j = 0; j < ndecisions; ++j) {
    minimpi::MatchDecision d;
    if (!(is >> d.rank >> d.seq >> d.src)) return false;
    b.decisions.push_back(d);
  }
  return true;
}

void CampaignCheckpoint::write(std::ostream& os) const {
  os << "compi-checkpoint " << kVersion << '\n';
  os << "seed " << seed << '\n';
  os << "next_iteration " << next_iteration << '\n';
  os << "counters " << restarts << ' ' << max_constraint_set << ' '
     << depth_bound_used << ' ' << transient_retries << ' ' << focus_replans
     << '\n';
  os << "sandbox " << sandbox_runs << ' ' << sandbox_signal_kills << ' '
     << sandbox_hang_kills << ' ' << sandbox_harvest_bytes << '\n';
  os << "sandbox2 " << warm_spawns << ' ' << cold_forks << ' '
     << fork_server_restarts << '\n';

  os << "iterations " << history_rows << ' ' << (finished ? 1 : 0) << '\n';
  os << "streams " << streams.csv_bytes << ' ' << streams.journal_bytes
     << '\n';

  os << "bugs " << bugs.size() << '\n';
  for (const BugRecord& b : bugs) write_bug(os, b);

  os << "covered " << covered.size();
  for (sym::BranchId b : covered) os << ' ' << b;
  os << '\n';

  os << "hangs " << known_hang_signatures.size() << '\n';
  for (const std::string& sig : known_hang_signatures) {
    os << escape(sig) << '\n';
  }

  os << "match_frontier " << interleavings_enqueued << ' '
     << interleavings_run << ' ' << interleavings_pruned << ' '
     << interleavings_capped << '\n';
  os << "match_seen " << interleaving_seen.size();
  for (std::uint64_t h : interleaving_seen) os << ' ' << h;
  os << '\n';

  // Opaque blobs are embedded verbatim, prefixed with their line count.
  write_blob(os, "ledger_lines", ledger_state);

  os << "cursors " << worker_cursors.size() << '\n';
  for (const WorkerCursor& w : worker_cursors) {
    os << "cursor " << w.plan.nprocs << ' ' << w.plan.focus << ' '
       << (w.next_is_restart ? 1 : 0) << ' ';
    if (w.pending_depth) {
      os << *w.pending_depth;
    } else {
      os << "none";
    }
    os << ' ' << w.failures << ' ' << w.consecutive_replans << ' '
       << (w.bounded_phase ? 1 : 0) << ' ' << w.depth_bound << ' ';
    write_assignment(os, w.plan.inputs);
    os << '\n';
    os << "cursor_strategy " << escape(w.strategy_name) << '\n';
    write_blob(os, "cursor_state_lines", w.strategy_state);
    write_registry(os, w.registry);
    write_pending(os, w);
  }

  os << "coord " << (is_coordinator ? 1 : 0) << '\n';
  if (is_coordinator) {
    os << "coord_counters " << coord_budget << ' ' << coord_completed << ' '
       << coord_next_lease_id << '\n';
    os << "coord_leases " << coord_leases.size() << '\n';
    for (const CoordLease& l : coord_leases) {
      os << "lease " << l.id << ' ' << l.remaining << ' ' << escape(l.shard)
         << '\n';
    }
    os << "coord_shards " << coord_shards.size() << '\n';
    for (const CoordShardCursor& s : coord_shards) {
      os << "shard " << s.iterations_completed << ' ' << s.covered_cursor
         << ' ' << escape(s.shard) << '\n';
    }
  }
  os << "end\n";
}

std::optional<CampaignCheckpoint> CampaignCheckpoint::read(std::istream& is) {
  CampaignCheckpoint c;
  int version = 0;
  if (!expect(is, "compi-checkpoint") || !(is >> version) ||
      version != kVersion) {
    return std::nullopt;
  }
  if (!expect(is, "seed") || !(is >> c.seed)) return std::nullopt;
  if (!expect(is, "next_iteration") || !(is >> c.next_iteration)) {
    return std::nullopt;
  }

  int flag = 0;
  if (!expect(is, "counters") ||
      !(is >> c.restarts >> c.max_constraint_set >> c.depth_bound_used >>
        c.transient_retries >> c.focus_replans)) {
    return std::nullopt;
  }
  if (!expect(is, "sandbox") ||
      !(is >> c.sandbox_runs >> c.sandbox_signal_kills >>
        c.sandbox_hang_kills >> c.sandbox_harvest_bytes)) {
    return std::nullopt;
  }
  if (!expect(is, "sandbox2") ||
      !(is >> c.warm_spawns >> c.cold_forks >> c.fork_server_restarts)) {
    return std::nullopt;
  }

  std::size_t n = 0;
  if (!expect(is, "iterations") || !(is >> c.history_rows >> flag)) {
    return std::nullopt;
  }
  c.finished = flag != 0;
  if (!expect(is, "streams") ||
      !(is >> c.streams.csv_bytes >> c.streams.journal_bytes)) {
    return std::nullopt;
  }

  if (!expect(is, "bugs") || !(is >> n)) return std::nullopt;
  c.bugs.reserve(std::min(n, kMaxSaneReserve));
  for (std::size_t i = 0; i < n; ++i) {
    BugRecord b;
    if (!read_bug(is, b)) return std::nullopt;
    c.bugs.push_back(std::move(b));
  }

  if (!expect(is, "covered") || !(is >> n)) return std::nullopt;
  c.covered.reserve(std::min(n, kMaxSaneReserve));
  for (std::size_t i = 0; i < n; ++i) {
    sym::BranchId b = 0;
    if (!(is >> b)) return std::nullopt;
    c.covered.push_back(b);
  }

  if (!expect(is, "hangs") || !(is >> n)) return std::nullopt;
  is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  for (std::size_t i = 0; i < n; ++i) {
    std::string line;
    if (!std::getline(is, line)) return std::nullopt;
    c.known_hang_signatures.push_back(unescape(line));
  }

  if (!expect(is, "match_frontier") ||
      !(is >> c.interleavings_enqueued >> c.interleavings_run >>
        c.interleavings_pruned >> c.interleavings_capped)) {
    return std::nullopt;
  }
  if (!expect(is, "match_seen") || !(is >> n)) return std::nullopt;
  c.interleaving_seen.reserve(std::min(n, kMaxSaneReserve));
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t h = 0;
    if (!(is >> h)) return std::nullopt;
    c.interleaving_seen.push_back(h);
  }
  if (!read_blob(is, "ledger_lines", c.ledger_state)) return std::nullopt;

  if (!expect(is, "cursors") || !(is >> n)) return std::nullopt;
  // A hostile/corrupt count must not drive a giant reserve; cursors are one
  // per worker, so anything huge is garbage.
  if (n > 4096) return std::nullopt;
  c.worker_cursors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    WorkerCursor w;
    std::string tok;
    if (!expect(is, "cursor") || !(is >> w.plan.nprocs >> w.plan.focus >>
                                   flag)) {
      return std::nullopt;
    }
    w.next_is_restart = flag != 0;
    if (!(is >> tok)) return std::nullopt;
    if (tok != "none") {
      std::size_t depth = 0;
      const auto [ptr, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), depth);
      if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
        return std::nullopt;
      }
      w.pending_depth = depth;
    }
    if (!(is >> w.failures >> w.consecutive_replans >> flag >>
          w.depth_bound)) {
      return std::nullopt;
    }
    w.bounded_phase = flag != 0;
    if (!read_assignment(is, w.plan.inputs)) return std::nullopt;
    if (!expect(is, "cursor_strategy")) return std::nullopt;
    w.strategy_name = unescape(read_tail(is));
    if (!read_blob(is, "cursor_state_lines", w.strategy_state) ||
        !read_registry(is, w.registry) || !read_pending(is, w)) {
      return std::nullopt;
    }
    c.worker_cursors.push_back(std::move(w));
  }

  if (!expect(is, "coord") || !(is >> flag)) return std::nullopt;
  c.is_coordinator = flag != 0;
  if (c.is_coordinator) {
    if (!expect(is, "coord_counters") ||
        !(is >> c.coord_budget >> c.coord_completed >>
          c.coord_next_lease_id)) {
      return std::nullopt;
    }
    if (!expect(is, "coord_leases") || !(is >> n)) return std::nullopt;
    // Leases are one per in-flight shard request; a huge count is garbage.
    if (n > 4096) return std::nullopt;
    c.coord_leases.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      CoordLease l;
      if (!expect(is, "lease") || !(is >> l.id >> l.remaining)) {
        return std::nullopt;
      }
      l.shard = unescape(read_tail(is));
      c.coord_leases.push_back(std::move(l));
    }
    if (!expect(is, "coord_shards") || !(is >> n)) return std::nullopt;
    if (n > 4096) return std::nullopt;
    c.coord_shards.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      CoordShardCursor s;
      if (!expect(is, "shard") ||
          !(is >> s.iterations_completed >> s.covered_cursor)) {
        return std::nullopt;
      }
      s.shard = unescape(read_tail(is));
      c.coord_shards.push_back(std::move(s));
    }
  }
  if (!expect(is, "end")) return std::nullopt;
  // The history must match the resume point: a mid-campaign snapshot spans
  // every ordinal before it (a damaged count must not resume with rows
  // missing), a finished one at most those, a coordinator's none.
  const auto next = static_cast<std::size_t>(c.next_iteration);
  if (c.next_iteration < 0 || c.history_rows > next ||
      (c.is_coordinator ? c.history_rows != 0
                        : !c.finished && c.history_rows != next)) {
    return std::nullopt;
  }
  return c;
}

}  // namespace compi::ckpt
