#include "sandbox/wire.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace compi::sandbox {

namespace {

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

// The fewest bytes one element of each counted list takes: a count is
// checked against the bytes left before anything is sized from it.
constexpr std::size_t kMinRankBytes = 15;     // outcome, message, TestLog
constexpr std::size_t kMinEntryBytes = 4;     // site, flags, constant, terms
constexpr std::size_t kMinTermBytes = 2;      // var, coeff
constexpr std::size_t kMinInputBytes = 2;     // var, value
constexpr std::size_t kMinMatchBytes = 6;     // five ids, feasible count
constexpr std::size_t kMinVarBytes = 6;       // kind, lo, hi, cap, comm, key
constexpr std::size_t kMinDecisionBytes = 3;  // rank, seq, src

/// The last Outcome enumerator: larger encoded values are corrupt.
constexpr rt::Outcome kLastOutcome = rt::Outcome::kOrphanMessage;

// Each payload's layout is written once, as a field list (the *_fields
// templates below) walked by a Writer, which encodes a const value, or by
// a Reader, which decodes into one: the two directions cannot disagree on
// the order of the fields.  Only the path, the coverage bitmap and the
// inputs map have a reading and a writing side of their own.

/// Appends one frame to `out`, encoding in place: the header goes out
/// first and gets its length when the writer is destroyed.
class Writer {
 public:
  Writer(std::string& out, FrameType type)
      : out_(out),
        w_(out),
        header_(serve::begin_wire_frame(out, static_cast<char>(type))) {}
  ~Writer() { serve::end_wire_frame(out_, header_); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// An integer (zigzag when signed), bool, double or millisecond count.
  template <typename T>
  bool num(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      w_.f64(v);
    } else if constexpr (std::is_same_v<T, std::chrono::milliseconds>) {
      w_.i64(v.count());
    } else if constexpr (std::is_signed_v<T>) {
      w_.i64(v);
    } else {
      w_.u64(static_cast<std::uint64_t>(v));
    }
    return true;
  }
  /// An enum no larger than its last enumerator.
  template <typename E>
  bool upto(const E& v, E /*last*/) {
    w_.u64(static_cast<std::uint64_t>(v));
    return true;
  }
  bool str(const std::string& s) {
    w_.str(s);
    return true;
  }
  bool opt(const std::optional<std::int64_t>& v) {
    w_.u64(v ? 1 : 0);
    if (v) w_.i64(*v);
    return true;
  }
  /// A count, then `each(item)` per item.
  template <typename C, typename F>
  bool list(const C& items, std::size_t /*min_bytes*/, F&& each) {
    w_.u64(items.size());
    for (const auto& item : items) each(item);
    return true;
  }

  /// Sorted by variable id, so the decoder fills its unordered_map in one
  /// canonical order (the order the checkpoint text writes too).
  bool inputs(const solver::Assignment& a) {
    sorted_.assign(a.begin(), a.end());
    std::sort(sorted_.begin(), sorted_.end());
    w_.u64(sorted_.size());
    for (const auto& [v, value] : sorted_) {
      w_.i64(v);
      w_.i64(value);
    }
    return true;
  }
  /// The bitmap's size, then one bit per branch (LSB first), so the size
  /// a decoder allocates is bounded by the bytes it was sent.
  bool coverage(const rt::CoverageBitmap& covered) {
    bits_.assign((covered.size() + 7) / 8, '\0');
    for (std::size_t b = 0; b < covered.size(); ++b) {
      if (covered.covered(static_cast<sym::BranchId>(b))) {
        bits_[b / 8] = static_cast<char>(bits_[b / 8] | (1 << (b % 8)));
      }
    }
    w_.u64(covered.size());
    w_.str(bits_);
    return true;
  }
  /// Per entry: site, op * 2 + taken, constant, then (var, coeff) terms.
  bool path(const sym::Path& path) {
    w_.u64(path.size());
    for (const sym::PathEntry& e : path.entries()) {
      w_.i64(e.site);
      w_.u64(static_cast<std::uint64_t>(e.constraint.op) * 2 +
             (e.taken ? 1 : 0));
      w_.i64(e.constraint.expr.constant_part());
      w_.u64(e.constraint.expr.num_terms());
      for (const solver::Term& t : e.constraint.expr.terms()) {
        w_.i64(t.var);
        w_.i64(t.coeff);
      }
    }
    return true;
  }

 private:
  std::string& out_;
  serve::ByteWriter w_;
  std::size_t header_;
  std::vector<std::pair<solver::Var, std::int64_t>> sorted_;  // scratch
  std::string bits_;                                          // scratch
};

/// Decodes a Writer's payload.  Every read checks its value's range, and
/// the caller checks done(): a payload must end where its layout does.
class Reader {
 public:
  /// A path may mention only variable ids below `num_vars`: sym::Path
  /// indexes its entries by variable id, so an unchecked id would size
  /// that index.
  explicit Reader(std::string_view in, std::size_t num_vars = 0)
      : r_(in), num_vars_(num_vars) {}

  template <typename T>
  bool num(T& v) {
    if constexpr (std::is_same_v<T, double>) {
      return r_.f64(v);
    } else if constexpr (std::is_same_v<T, std::chrono::milliseconds>) {
      std::int64_t ms = 0;
      if (!r_.i64(ms)) return false;
      v = std::chrono::milliseconds(ms);
      return true;
    } else if constexpr (std::is_same_v<T, bool>) {
      return upto(v, true);
    } else if constexpr (std::is_signed_v<T>) {
      std::int64_t x = 0;
      if (!r_.i64(x) || x < std::numeric_limits<T>::min() ||
          x > std::numeric_limits<T>::max()) {
        return false;
      }
      v = static_cast<T>(x);
      return true;
    } else {
      std::uint64_t x = 0;
      if (!r_.u64(x) || x > std::numeric_limits<T>::max()) return false;
      v = static_cast<T>(x);
      return true;
    }
  }
  template <typename E>
  bool upto(E& v, E last) {
    std::uint64_t x = 0;
    if (!r_.u64(x) || x > static_cast<std::uint64_t>(last)) return false;
    v = static_cast<E>(x);
    return true;
  }
  bool str(std::string& s) { return r_.str(s); }
  bool opt(std::optional<std::int64_t>& v) {
    bool has = false;
    std::int64_t x = 0;
    if (!upto(has, true) || (has && !r_.i64(x))) return false;
    v = has ? std::optional<std::int64_t>(x) : std::nullopt;
    return true;
  }
  template <typename C, typename F>
  bool list(C& items, std::size_t min_bytes, F&& each) {
    std::size_t n = 0;
    if (!r_.count(n, min_bytes)) return false;
    items.assign(n, {});
    for (auto& item : items) {
      if (!each(item)) return false;
    }
    return true;
  }

  bool inputs(solver::Assignment& a) {
    std::size_t n = 0;
    if (!r_.count(n, kMinInputBytes)) return false;
    a.clear();
    a.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      solver::Var v = 0;
      std::int64_t value = 0;
      if (!num(v) || !r_.i64(value)) return false;
      a[v] = value;
    }
    return true;
  }
  bool coverage(rt::CoverageBitmap& covered) {
    std::uint64_t size = 0;
    if (!r_.u64(size) || !r_.str(bits_) ||
        bits_.size() != size / 8 + (size % 8 != 0 ? 1 : 0)) {
      return false;
    }
    covered = rt::CoverageBitmap(static_cast<std::size_t>(size));
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      unsigned byte = static_cast<unsigned char>(bits_[i]);
      for (std::size_t b = i * 8; byte != 0; ++b, byte >>= 1) {
        if ((byte & 1u) != 0) covered.mark(static_cast<sym::BranchId>(b));
      }
    }
    return true;
  }
  bool path(sym::Path& path) {
    std::size_t n = 0;
    if (!r_.count(n, kMinEntryBytes)) return false;
    path.clear();
    for (std::size_t i = 0; i < n; ++i) {
      sym::SiteId site = 0;
      std::uint64_t flags = 0;
      std::int64_t constant = 0;
      std::size_t nterms = 0;
      if (!num(site) || !r_.u64(flags) ||
          flags / 2 > static_cast<std::uint64_t>(solver::CompareOp::kGe) ||
          !r_.i64(constant) || !r_.count(nterms, kMinTermBytes)) {
        return false;
      }
      solver::Predicate p;
      p.op = static_cast<solver::CompareOp>(flags / 2);
      p.expr = solver::LinearExpr(constant);
      for (std::size_t t = 0; t < nterms; ++t) {
        solver::Var v = 0;
        std::int64_t coeff = 0;
        if (!num(v) || v < 0 || static_cast<std::size_t>(v) >= num_vars_ ||
            !r_.i64(coeff)) {
          return false;
        }
        p.expr.add_term(v, coeff);
      }
      path.append(site, (flags & 1) != 0, std::move(p));
    }
    return true;
  }

  [[nodiscard]] bool done() const { return r_.done(); }

 private:
  serve::ByteReader r_;
  std::size_t num_vars_;
  std::string bits_;  // scratch
};

template <typename IO, typename C>
bool ints(IO& io, C& values) {
  return io.list(values, 1, [&](auto& v) { return io.num(v); });
}

template <typename IO, typename Log>
bool log_fields(IO& io, Log& log) {
  return io.num(log.heavy) && io.num(log.rank) && io.num(log.nprocs) &&
         io.upto(log.outcome, kLastOutcome) && io.str(log.outcome_message) &&
         io.coverage(log.covered) && io.path(log.path) &&
         ints(io, log.branch_trace) && io.num(log.op_count) &&
         io.inputs(log.inputs_used) && ints(io, log.comm_sizes) &&
         io.list(log.rank_mapping, 1, [&](auto& row) { return ints(io, row); });
}

template <typename IO, typename Run>
bool run_fields(IO& io, Run& run) {
  return io.num(run.focus) && io.num(run.wall_seconds) &&
         io.list(run.ranks, kMinRankBytes,
                 [&](auto& rank) {
                   return io.upto(rank.outcome, kLastOutcome) &&
                          io.str(rank.message) && log_fields(io, rank.log);
                 }) &&
         // Wildcard decision trace (empty when no wildcard receive matched).
         io.num(run.match_diverged) &&
         io.list(run.match_trace, kMinMatchBytes, [&](auto& m) {
           return io.num(m.rank) && io.num(m.seq) && io.num(m.chosen_src) &&
                  io.num(m.comm_uid) && io.num(m.tag) && ints(io, m.feasible);
         });
}

template <typename IO, typename Meta>
bool var_fields(IO& io, Meta& m) {
  return io.upto(m.kind, rt::VarKind::kSizeWorld) && io.num(m.domain.lo) &&
         io.num(m.domain.hi) && io.opt(m.cap) && io.num(m.comm_index) &&
         io.str(m.key);
}

/// Every launch parameter but the inputs, which go last.
template <typename IO, typename Spec, typename Hang>
bool spawn_fields(IO& io, Spec& spec, Hang& hang) {
  auto& chaos = spec.chaos;
  return io.num(spec.nprocs) && io.num(spec.focus) && io.num(spec.one_way) &&
         io.num(spec.reduction) && io.num(spec.mark_mpi_vars) &&
         io.num(spec.rng_seed) && io.num(spec.step_budget) &&
         io.num(spec.timeout) && io.num(hang) && io.num(spec.track_base) &&
         io.num(chaos.seed) && io.num(chaos.drop_rate) &&
         io.num(chaos.delay_rate) && io.num(chaos.delay) &&
         io.num(chaos.crash_rank) && io.num(chaos.crash_at_call) &&
         io.upto(chaos.crash_outcome, kLastOutcome) &&
         io.num(chaos.stall_rank) && io.num(chaos.stall_at_collective) &&
         io.list(spec.match_plan, kMinDecisionBytes, [&](auto& d) {
           return io.num(d.rank) && io.num(d.seq) && io.num(d.src);
         });
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

void encode_run_result(const minimpi::RunResult& run, std::string& out) {
  Writer w(out, FrameType::kResult);
  run_fields(w, run);
}

bool decode_run_result(std::string_view payload, std::size_t num_vars,
                       minimpi::RunResult& out) {
  Reader r(payload, num_vars);
  return run_fields(r, out) && r.done();
}

void encode_registry(const rt::VarRegistry& registry, std::size_t start,
                     std::string& out) {
  Writer w(out, FrameType::kRegistry);
  w.list(registry.metas_from(start), kMinVarBytes,
         [&](const rt::VarMeta& m) { return var_fields(w, m); });
}

bool apply_registry(std::string_view payload, rt::VarRegistry& registry) {
  Reader r(payload);
  std::vector<rt::VarMeta> metas;
  if (!r.list(metas, kMinVarBytes,
              [&](rt::VarMeta& m) { return var_fields(r, m); }) ||
      !r.done()) {
    return false;
  }
  for (const rt::VarMeta& m : metas) {
    registry.intern(m.key, m.kind, m.domain, m.cap, m.comm_index);
  }
  return true;
}

void encode_spawn_request(const minimpi::LaunchSpec& spec,
                          std::chrono::milliseconds hang, std::string& out) {
  Writer w(out, FrameType::kSpawn);
  spawn_fields(w, spec, hang);
  w.inputs(spec.inputs != nullptr ? *spec.inputs : solver::Assignment{});
}

bool decode_spawn_request(std::string_view payload, minimpi::LaunchSpec& spec,
                          solver::Assignment& inputs,
                          std::chrono::milliseconds& hang) {
  Reader r(payload);
  if (!spawn_fields(r, spec, hang) || !r.inputs(inputs) || !r.done()) {
    return false;
  }
  spec.inputs = &inputs;
  return true;
}

}  // namespace compi::sandbox
