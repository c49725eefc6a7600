#include "compi/session.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <functional>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>

#include "obs/artifacts.h"
#include "obs/journal.h"

namespace compi {

namespace fs = std::filesystem;

namespace {

std::int64_t to_int(const std::string& s) {
  std::int64_t v = 0;
  (void)std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

/// Extracts `key=value` tokens from a whitespace-separated tail.
void parse_kv(const std::string& text,
              const std::function<void(const std::string&,
                                       const std::string&)>& sink) {
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) continue;
    sink(token.substr(0, eq), token.substr(eq + 1));
  }
}

}  // namespace

std::vector<LoggedBug> read_bugs(const fs::path& bugs_file) {
  std::vector<LoggedBug> out;
  std::ifstream in(bugs_file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '[') {
      // "[kind] message" (message \-escaped so multi-line faults fit)
      LoggedBug bug;
      const auto close = line.find(']');
      if (close == std::string::npos) continue;
      const auto outcome =
          rt::outcome_from_string(line.substr(1, close - 1));
      if (!outcome) continue;
      bug.outcome = *outcome;
      bug.message =
          ckpt::unescape(line.substr(std::min(close + 2, line.size())));
      out.push_back(std::move(bug));
    } else if (!out.empty() && line.find("first_iteration=") !=
                                   std::string::npos) {
      parse_kv(line, [&](const std::string& k, const std::string& v) {
        if (k == "first_iteration") out.back().first_iteration =
            static_cast<int>(to_int(v));
        else if (k == "occurrences") out.back().occurrences =
            static_cast<int>(to_int(v));
        else if (k == "nprocs") out.back().nprocs =
            static_cast<int>(to_int(v));
        else if (k == "focus") out.back().focus = static_cast<int>(to_int(v));
        else if (k == "flaky") out.back().flaky = to_int(v) != 0;
      });
    } else if (!out.empty() && line.find("inputs:") != std::string::npos) {
      parse_kv(line.substr(line.find("inputs:") + 7),
               [&](const std::string& k, const std::string& v) {
                 out.back().inputs[k] = to_int(v);
               });
    } else if (!out.empty() &&
               line.find("decisions:") != std::string::npos) {
      // "decisions: rank/seq->src ..." — the replayable decision vector.
      std::istringstream in(line.substr(line.find("decisions:") + 10));
      std::string token;
      while (in >> token) {
        const auto slash = token.find('/');
        const auto arrow = token.find("->");
        if (slash == std::string::npos || arrow == std::string::npos ||
            arrow < slash) {
          continue;
        }
        minimpi::MatchDecision d;
        d.rank = static_cast<int>(to_int(token.substr(0, slash)));
        d.seq = static_cast<int>(
            to_int(token.substr(slash + 1, arrow - slash - 1)));
        d.src = static_cast<int>(to_int(token.substr(arrow + 2)));
        out.back().decisions.push_back(d);
      }
    }
  }
  return out;
}

std::map<std::string, std::string> read_summary(const fs::path& summary_file) {
  std::map<std::string, std::string> out;
  std::ifstream in(summary_file);
  std::string key, value;
  while (in >> key >> value) out[key] = value;
  return out;
}

namespace {

// `worker` and `interleaving` ride at the END of the row so positional
// readers of the older layouts (external tooling) keep working.
constexpr std::string_view kCsvHeader =
    "iteration,nprocs,focus,outcome,constraint_set_size,"
    "covered_branches,exec_seconds,solve_seconds,restart,"
    "solver_nodes,retries,worker,interleaving\n";

constexpr const char* kTimelineHeader =
    "iteration,covered_branches,new_branches\n";

constexpr const char* kLogFile = "session.log";

/// Rows reach iterations.csv once this many bytes of them are buffered
/// (and when the writer flushes or closes).
constexpr std::size_t kCsvBufferBytes = 64 * 1024;

/// Appends one iterations.csv row to `out`.  Timings take a fixed width:
/// 17 significant digits, so a restored row is bit-exact, and a row's
/// length does not follow the host's timing, so neither does the CSV
/// length a snapshot commits.
void append_csv_row(std::string& out, const IterationRecord& r) {
  // No field runs past 32 characters, so a row fits in 13 * 33 bytes.
  const std::size_t from = out.size();
  out.resize(from + 13 * 33);
  char* p = out.data() + from;
  char* const end = out.data() + out.size();
  // Each field is followed by a comma; the last one's becomes the newline.
  const auto num = [&](auto v) {
    p = std::to_chars(p, end, v).ptr;
    *p++ = ',';
  };
  const auto timing = [&](double v) {
    p = std::to_chars(p, end, v, std::chars_format::scientific, 16).ptr;
    *p++ = ',';
  };
  num(r.iteration);
  num(r.nprocs);
  num(r.focus);
  const std::string_view outcome = rt::to_string(r.outcome);
  p = std::copy(outcome.begin(), outcome.end(), p);
  *p++ = ',';
  num(r.constraint_set_size);
  num(r.covered_branches);
  timing(r.exec_seconds);
  timing(r.solve_seconds);
  num(r.restart ? 1 : 0);
  num(r.solver_nodes);
  num(r.retries);
  num(r.worker);
  num(r.interleaving);
  p[-1] = '\n';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

template <typename T>
bool parse_field(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc{} && ptr == end;
}

/// Parses one data row of kCsvHeader's columns; false for anything else
/// (the header, a torn final row, a corrupted field).
bool parse_csv_row(std::string_view line, IterationRecord& r) {
  std::array<std::string_view, 13> f;
  std::size_t n = 0;
  for (;;) {
    if (n == f.size()) return false;
    const auto comma = line.find(',');
    f[n++] = line.substr(0, comma);
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  const auto outcome = rt::outcome_from_string(f[3]);
  int restart = -1;
  if (n != f.size() || !outcome || !parse_field(f[0], r.iteration) ||
      !parse_field(f[1], r.nprocs) || !parse_field(f[2], r.focus) ||
      !parse_field(f[4], r.constraint_set_size) ||
      !parse_field(f[5], r.covered_branches) ||
      !parse_field(f[6], r.exec_seconds) ||
      !parse_field(f[7], r.solve_seconds) || !parse_field(f[8], restart) ||
      (restart != 0 && restart != 1) || !parse_field(f[9], r.solver_nodes) ||
      !parse_field(f[10], r.retries) || !parse_field(f[11], r.worker) ||
      !parse_field(f[12], r.interleaving)) {
    return false;
  }
  r.outcome = *outcome;
  r.restart = restart == 1;
  return true;
}

/// The bytes of `file` ("" when it cannot be read).
std::string slurp(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Appends each parseable whole line of `text` to `rows` (a torn last line
/// has no newline and is not whole); returns how many whole lines did not
/// parse.
std::size_t parse_rows(std::string_view text,
                       std::vector<IterationRecord>& rows) {
  std::size_t bad = 0;
  for (std::size_t nl; (nl = text.find('\n')) != std::string_view::npos;
       text.remove_prefix(nl + 1)) {
    IterationRecord r;
    if (parse_csv_row(text.substr(0, nl), r)) {
      rows.push_back(r);
    } else {
      ++bad;
    }
  }
  return bad;
}

/// Writes all of `bytes` to `fd` (at `offset`, or appending when it is
/// negative); false on an error or a full disk.
bool write_all(int fd, std::string_view bytes, off_t offset = -1) {
  while (!bytes.empty()) {
    const ssize_t n = offset < 0
                          ? ::write(fd, bytes.data(), bytes.size())
                          : ::pwrite(fd, bytes.data(), bytes.size(), offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
    if (offset >= 0) offset += n;
  }
  return true;
}

/// Reads exactly `n` bytes of `fd` at `offset` into `out`.
bool read_all(int fd, char* out, std::size_t n, off_t offset) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, offset);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    n -= static_cast<std::size_t>(got);
    offset += got;
  }
  return true;
}

/// Cuts `file` back to `length` bytes or, when it holds fewer, to its last
/// newline (0 without one); false when a file there could not be cut.
bool cut_file(const fs::path& file, std::uint64_t length) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(file, ec);
  if (ec) return true;  // nothing there yet
  if (size < length) length = slurp(file).rfind('\n') + 1;
  fs::resize_file(file, length, ec);
  return !ec;
}

/// The kind of the last `diagnosis` event in journal `text`, or "".
std::string last_diagnosis_kind(std::string_view text) {
  while (!text.empty()) {
    if (text.back() == '\n') text.remove_suffix(1);
    const std::size_t nl = text.rfind('\n');
    const std::string_view line =
        nl == std::string_view::npos ? text : text.substr(nl + 1);
    if (line.find("\"diagnosis\"") != std::string_view::npos) {
      const std::optional<obs::ParsedEvent> e = obs::parse_journal_line(line);
      if (e && e->type == "diagnosis") return e->str("kind").value_or("");
    }
    text = nl == std::string_view::npos ? std::string_view{}
                                        : text.substr(0, nl + 1);
  }
  return "";
}

/// fsync()s a file or directory through a fresh read-only descriptor.
bool sync_path(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Writes `file` through a tmp file + rename, so readers never see it
/// torn; false (and no trace of the attempt) when the write failed.
bool replace_file(const fs::path& file, std::string_view contents,
                  bool sync = false) {
  const fs::path tmp = fs::path(file) += ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  bool written = fd >= 0 && write_all(fd, contents) &&
                 (!sync || ::fsync(fd) == 0);
  if (fd >= 0) written = ::close(fd) == 0 && written;
  std::error_code ec;
  if (written) fs::rename(tmp, file, ec);
  if (written && !ec) return true;
  fs::remove(tmp, ec);
  return false;
}

void write_rank_logs(const fs::path& iter_dir,
                     const std::vector<minimpi::RankResult>& ranks) {
  fs::create_directories(iter_dir);
  for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
    std::ofstream out(iter_dir / ("rank_" + std::to_string(rank) + ".log"));
    out << ranks[rank].log.serialize();
  }
}

fs::path iteration_dir(const fs::path& dir, int iteration) {
  return dir / ("iter_" + std::to_string(iteration));
}

// ---- session.log frames ----
// A frame is a 24-byte header, then its body:
//   [0, 4)    "cSL", then the kind: 'R' rows, 'S' snapshot
//   [4, 8)    the body's length
//   [8, 16)   `at`: a rows frame's first CSV offset, or the CSV length a
//             snapshot commits
//   [16, 24)  the checksum of bytes [0, 16) and of the body
// Integers are little-endian.

using Kind = SessionLogFrame::Kind;
constexpr std::size_t kFrameHeader = kLogFrameHeader;
constexpr std::string_view kFrameMagic = "cSL";

void put_le(char* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

std::uint64_t get_le(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}

/// A little-endian 64-bit word at `p`.
std::uint64_t load_le(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// A word-at-a-time 64-bit checksum.  Each step (xor a word, multiply by an
/// odd constant, fold the high half down) is a bijection of the state, so
/// one changed word always changes the result: a torn or bit-flipped frame
/// fails it.  Four lanes take 32-byte strides, so their steps overlap.
std::uint64_t checksum(std::string_view head, std::string_view body) {
  std::uint64_t l0 = 0x243F6A8885A308D3ull, l1 = 0x13198A2E03707344ull,
                l2 = 0xA4093822299F31D0ull, l3 = 0x082EFA98EC4E6C89ull;
  const auto mix = [](std::uint64_t& h, std::uint64_t w) {
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
  };
  for (const std::string_view bytes : {head, body}) {
    const char* p = bytes.data();
    std::size_t n = bytes.size();
    for (; n >= 32; p += 32, n -= 32) {
      mix(l0, load_le(p));
      mix(l1, load_le(p + 8));
      mix(l2, load_le(p + 16));
      mix(l3, load_le(p + 24));
    }
    for (; n >= 8; p += 8, n -= 8) mix(l0, load_le(p));
    if (n > 0) {
      char tail[8] = {};
      std::memcpy(tail, p, n);
      mix(l0, load_le(tail));
    }
  }
  mix(l0, l1);
  mix(l0, l2);
  mix(l0, l3);
  return l0;
}

/// Fills the header at `frame` in `buf` for the body that follows it to
/// the end of `buf`.
void seal_frame(std::string& buf, std::size_t frame, Kind kind,
                std::uint64_t at) {
  char* const h = buf.data() + frame;
  const std::size_t length = buf.size() - frame - kFrameHeader;
  std::memcpy(h, kFrameMagic.data(), kFrameMagic.size());
  h[3] = static_cast<char>(kind);
  put_le(h + 4, length, 4);
  put_le(h + 8, at, 8);
  put_le(h + 16, checksum({h, 16}, {h + kFrameHeader, length}), 8);
}

/// Where one intact frame of session.log lies.
struct FrameRef {
  Kind kind = Kind::kSnapshot;
  std::uint64_t at = 0;
  std::uint64_t offset = 0;  // of its header
  std::uint32_t length = 0;  // of its body
  [[nodiscard]] std::uint64_t body() const { return offset + kFrameHeader; }
  [[nodiscard]] std::uint64_t end() const { return body() + length; }
};

/// session.log, read one frame at a time up to `limit` bytes.
class LogReader {
 public:
  explicit LogReader(const fs::path& dir, std::uint64_t limit = UINT64_MAX)
      : fd_(::open((dir / kLogFile).c_str(), O_RDONLY | O_CLOEXEC)) {
    struct stat st {};
    if (fd_ >= 0 && ::fstat(fd_, &st) == 0) {
      limit_ = std::min(limit, static_cast<std::uint64_t>(st.st_size));
    }
  }
  ~LogReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  /// The next intact frame, its body in `body`; false at the end of the log
  /// and at its first damaged frame.
  bool next(FrameRef& f, std::string& body) {
    char h[kFrameHeader];
    if (end_ + kFrameHeader > limit_ ||
        !read_all(fd_, h, kFrameHeader, static_cast<off_t>(end_))) {
      return false;
    }
    f.kind = static_cast<Kind>(h[3]);
    f.length = static_cast<std::uint32_t>(get_le(h + 4, 4));
    f.at = get_le(h + 8, 8);
    f.offset = end_;
    if (std::string_view(h, 3) != kFrameMagic ||
        (f.kind != Kind::kRows && f.kind != Kind::kSnapshot) ||
        f.end() > limit_ || !read(f, body) ||
        checksum({h, 16}, body) != get_le(h + 16, 8)) {
      return false;
    }
    end_ = f.end();
    return true;
  }

  /// Reads frame `f`'s body into `body`.
  bool read(const FrameRef& f, std::string& body) const {
    body.resize(f.length);
    return read_all(fd_, body.data(), f.length, static_cast<off_t>(f.body()));
  }

 private:
  int fd_;
  std::uint64_t limit_ = 0;  // 0 without a log
  std::uint64_t end_ = 0;    // of the last intact frame
};

/// Fills c.iterations from the snapshot's committed CSV bytes: the first
/// c.streams.csv_base bytes of iterations.csv, then the log's `rows`
/// frames.  False unless they are the header plus exactly c.history_rows
/// parseable rows with increasing ordinals below c.next_iteration.
/// `chunk` is scratch space.
bool load_history(const fs::path& csv, const LogReader& log,
                  std::span<const FrameRef> rows, ckpt::CampaignCheckpoint& c,
                  std::string& chunk) {
  c.iterations.clear();
  if (c.streams.csv_bytes == 0) return c.history_rows == 0;
  bool first = true, whole = true;
  std::size_t bad = 0;
  const auto take = [&](std::string_view text) {
    if (text.empty() || !whole) return;
    if (first) {
      first = false;
      whole = text.starts_with(kCsvHeader);
      text.remove_prefix(whole ? kCsvHeader.size() : text.size());
    }
    whole = whole && (text.empty() || text.back() == '\n');
    if (whole) bad += parse_rows(text, c.iterations);
  };
  if (const std::uint64_t base = c.streams.csv_base; base > 0) {
    std::ifstream in(csv, std::ios::binary);
    chunk.resize(base);
    in.read(chunk.data(), static_cast<std::streamsize>(base));
    if (static_cast<std::uint64_t>(in.gcount()) != base) return false;
    take(chunk);
  }
  for (const FrameRef& f : rows) {
    if (!log.read(f, chunk)) return false;
    take(chunk);
  }
  if (first || !whole || bad != 0 || c.iterations.size() != c.history_rows) {
    return false;
  }
  const auto out_of_order = std::adjacent_find(
      c.iterations.begin(), c.iterations.end(),
      [](const IterationRecord& a, const IterationRecord& b) {
        return a.iteration >= b.iteration;
      });
  return c.iterations.empty() ||
         (out_of_order == c.iterations.end() &&
          c.iterations.front().iteration >= 0 &&
          c.iterations.back().iteration < c.next_iteration);
}

/// The CSV bytes [at.csv_base, at.csv_bytes) from the rows frames of the
/// log's first at.log_bytes bytes; false unless they hold exactly those.
bool log_rows(const fs::path& dir, const ckpt::StreamLengths& at,
              std::string& out) {
  out.clear();
  LogReader log(dir, at.log_bytes);
  std::string body;
  for (FrameRef f; log.next(f, body);) {
    if (f.kind != Kind::kRows || f.at < at.csv_base) continue;
    if (f.at != at.csv_base + out.size()) return false;
    out += body;
  }
  return at.csv_base + out.size() == at.csv_bytes;
}

/// Brings iterations.csv to the commit point `at`.  Where the log holds
/// the rows from at.csv_base on, they replace a tail power loss left short
/// or different; otherwise the file is cut back to at.csv_bytes or, when it
/// holds fewer, to its last newline.  False when the file could not be
/// fixed.
bool restore_csv(const fs::path& dir, const ckpt::StreamLengths& at) {
  const fs::path csv = dir / "iterations.csv";
  std::string tail;
  if (!log_rows(dir, at, tail)) return cut_file(csv, at.csv_bytes);
  const int fd = ::open(csv.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  struct stat st {};
  if (fd < 0 || ::fstat(fd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) < at.csv_base) {
    if (fd >= 0) ::close(fd);
    return cut_file(csv, at.csv_bytes);
  }
  const auto base = static_cast<off_t>(at.csv_base);
  std::string kept(std::min<std::size_t>(tail.size(), st.st_size - base), '\0');
  bool ok = read_all(fd, kept.data(), kept.size(), base);
  if (!ok || kept != tail) ok = write_all(fd, tail, base);
  ok = ok && ::ftruncate(fd, static_cast<off_t>(at.csv_bytes)) == 0;
  return ::close(fd) == 0 && ok;
}

}  // namespace

std::optional<ckpt::CampaignCheckpoint> read_checkpoint(
    const fs::path& dir,
    const std::function<bool(const ckpt::CampaignCheckpoint&)>& usable) {
  // One pass over the log finds each snapshot frame that meets the rows
  // frames before it, and the CSV length those rows start from: the `at`
  // of the first rows frame after a gap (the CSV was synced up to it), or
  // of a snapshot with no rows frame before it (the log's base after a
  // compaction).  Overlapping rows end the log like a damaged frame.
  struct Candidate {
    FrameRef frame;
    std::uint64_t base = 0;
    std::size_t rows_begin = 0, rows_end = 0;
  };
  LogReader log(dir);
  std::vector<FrameRef> rows;
  std::vector<Candidate> snapshots;
  std::string body;
  bool started = false;
  std::uint64_t base = 0, end = 0;
  std::size_t run = 0;
  for (FrameRef f; log.next(f, body);) {
    if (f.kind == Kind::kRows && started && f.at < end) break;
    if (!started || (f.kind == Kind::kRows && f.at > end)) {
      started = true;
      base = end = f.at;
      run = rows.size();
    }
    if (f.kind == Kind::kRows) {
      end += f.length;
      rows.push_back(f);
    } else if (f.at == end) {
      snapshots.push_back({f, base, run, rows.size()});
    }
  }
  // Newest first: a snapshot that does not parse, rebuild or pass `usable`
  // gives way to the one before it.
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    if (!log.read(it->frame, body)) continue;
    std::istringstream in(body);
    std::optional<ckpt::CampaignCheckpoint> c =
        ckpt::CampaignCheckpoint::read(in);
    if (!c || c->streams.csv_bytes != it->frame.at) continue;
    c->streams.log_bytes = it->frame.end();
    c->streams.csv_base = it->base;
    const std::span<const FrameRef> history(rows.data() + it->rows_begin,
                                            it->rows_end - it->rows_begin);
    if (load_history(dir / "iterations.csv", log, history, *c, body) &&
        (!usable || usable(*c))) {
      return c;
    }
  }
  return std::nullopt;
}

std::vector<SessionLogFrame> read_session_log(const fs::path& dir) {
  std::vector<SessionLogFrame> frames;
  LogReader log(dir);
  std::string body;
  for (FrameRef f; log.next(f, body);) {
    frames.push_back({f.kind, f.at, body});
  }
  return frames;
}

bool write_session_log(const fs::path& dir,
                       const std::vector<SessionLogFrame>& frames) {
  std::string bytes;
  for (const SessionLogFrame& f : frames) {
    const std::size_t at = bytes.size();
    bytes.append(kFrameHeader, '\0');
    bytes += f.body;
    seal_frame(bytes, at, f.kind, f.at);
  }
  return replace_file(dir / kLogFile, bytes);
}

std::vector<IterationRecord> read_iterations(const fs::path& csv) {
  std::vector<IterationRecord> rows;
  (void)parse_rows(slurp(csv), rows);
  return rows;
}

SessionWriter::SessionWriter(fs::path dir, int keep_rank_logs, bool snapshots)
    : dir_(std::move(dir)),
      keep_rank_logs_(keep_rank_logs),
      snapshots_(snapshots) {
  fs::create_directories(dir_);
}

SessionWriter::~SessionWriter() {
  (void)write_csv_buffer();
  if (csv_fd_ >= 0) ::close(csv_fd_);
  if (log_fd_ >= 0) ::close(log_fd_);
}

void SessionWriter::write_iteration(int iteration,
                                    const minimpi::RunResult& run) {
  // Nothing to retain (keep_rank_logs = 0, or a run with no rank logs):
  // don't litter the session with empty iter dirs.
  if (keep_rank_logs_ == 0 || run.ranks.empty()) return;
  write_rank_logs(iteration_dir(dir_, iteration), run.ranks);
}

void SessionWriter::retain_iteration(int iteration,
                                     minimpi::RunResult&& run) {
  if (keep_rank_logs_ < 0) {
    write_iteration(iteration, run);
    return;
  }
  const auto window = static_cast<std::size_t>(keep_rank_logs_);
  if (window == 0 || run.ranks.empty()) return;
  if (recent_.size() == window && iteration < recent_.begin()->first) return;
  recent_[iteration] = std::move(run.ranks);
  if (recent_.size() > window) recent_.erase(recent_.begin());
}

void SessionWriter::begin_iterations(const std::vector<IterationRecord>& rows,
                                     obs::Journal* journal) {
  resume_iterations({}, {}, journal);
  for (const IterationRecord& r : rows) append_iteration(r);
}

std::string SessionWriter::resume_iterations(
    const ckpt::StreamLengths& at, const IterationHistory& history,
    obs::Journal* journal) {
  // Past the committed lengths lies the killed run's uncommitted tail,
  // which the resumed campaign is about to re-run.  Below them, power loss
  // may have taken CSV bytes the log still holds, and journal bytes, which
  // have no copy.
  const fs::path csv = dir_ / "iterations.csv";
  const bool fresh = at.csv_bytes == 0;
  log_bytes_ = fresh ? 0 : at.log_bytes;
  if (!open_log(fresh)) {
    obs::note_artifact_write_error("checkpoint", (dir_ / kLogFile).string());
  }
  const bool restored = fresh || restore_csv(dir_, at);
  csv_fd_ = ::open(csv.c_str(),
                   O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                       (fresh ? O_TRUNC : 0),
                   0644);
  struct stat st {};
  csv_bytes_ = csv_fd_ >= 0 && ::fstat(csv_fd_, &st) == 0
                   ? static_cast<std::uint64_t>(st.st_size)
                   : 0;
  record_.assign(kFrameHeader, '\0');
  prev_record_.clear();
  prev_snapshot_at_ = 0;
  if (fresh) {
    std::string& out = snapshots_ ? record_ : csv_buf_;
    out += kCsvHeader;
    if (snapshots_) csv_buf_ += kCsvHeader;
    csv_bytes_ += kCsvHeader.size();
  }
  if (!restored || csv_fd_ < 0) lose_csv_rows();
  timeline_.open(dir_ / "coverage_timeline.csv", std::ios::trunc);
  timeline_ << kTimelineHeader;
  history.visit(0, [this](const IterationRecord& r) { append_timeline(r); });
  std::string verdict;
  if (journal != nullptr) {
    const fs::path file = dir_ / "journal.jsonl";
    (void)cut_file(file, at.journal_bytes);
    if (at.journal_bytes > 0) verdict = last_diagnosis_kind(slurp(file));
    (void)journal->open(file);
    journal_ = journal;
  }
  return verdict;
}

bool SessionWriter::open_log(bool fresh) {
  const fs::path log = dir_ / kLogFile;
  std::error_code ec;
  // A new file's name is durable only once its directory is synced: the
  // first synced snapshot does that.
  log_dir_unsynced_ = !fs::exists(log, ec);
  log_fd_ = ::open(log.c_str(),
                   O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                       (fresh ? O_TRUNC : 0),
                   0644);
  if (log_fd_ >= 0 &&
      (fresh || ::ftruncate(log_fd_, static_cast<off_t>(log_bytes_)) == 0)) {
    return true;
  }
  if (log_fd_ >= 0) ::close(log_fd_);
  log_fd_ = -1;
  return false;
}

void SessionWriter::append_iteration(const IterationRecord& rec) {
  if (csv_fd_ < 0) return;
  // With snapshots the row goes into the log's next rows frame, and from
  // there to the CSV's buffer; without, straight to the buffer.
  std::string& out = snapshots_ ? record_ : csv_buf_;
  const std::size_t from = out.size();
  append_csv_row(out, rec);
  csv_bytes_ += out.size() - from;
  if (snapshots_) csv_buf_.append(out, from);
  if (csv_buf_.size() >= kCsvBufferBytes) (void)write_csv_buffer();
  append_timeline(rec);
}

void SessionWriter::append_timeline(const IterationRecord& rec) {
  if (rec.covered_branches <= timeline_covered_) return;
  timeline_ << rec.iteration << ',' << rec.covered_branches << ','
            << (rec.covered_branches - timeline_covered_) << '\n';
  timeline_covered_ = rec.covered_branches;
}

void SessionWriter::lose_csv_rows() {
  obs::note_artifact_write_error("iterations",
                                 (dir_ / "iterations.csv").string());
  csv_buf_.clear();
  csv_lost_rows_ = true;
}

bool SessionWriter::write_csv_buffer() {
  if (csv_lost_rows_) {
    csv_buf_.clear();
    return false;
  }
  if (csv_buf_.empty()) return true;
  const bool ok = write_all(csv_fd_, csv_buf_);
  csv_buf_.clear();
  if (!ok) lose_csv_rows();
  return ok;
}

void SessionWriter::write_summary(const CampaignResult& result) {
  timeline_.flush();
  if (csv_lost_rows_ && csv_fd_ >= 0) {
    // Heal: a failed write lost rows, so write the file whole from the
    // result, through tmp + rename so a kill mid-rewrite cannot tear the
    // rows the log's base covers.  Appends continue on the new file.
    const fs::path file = dir_ / "iterations.csv";
    std::string text(kCsvHeader);
    result.iterations.visit(
        0, [&](const IterationRecord& r) { append_csv_row(text, r); });
    ::close(csv_fd_);
    csv_fd_ = -1;
    // The rows buffered since the loss are in `text` already.
    csv_buf_.clear();
    csv_bytes_ = text.size();
    if (replace_file(file, text)) {
      csv_fd_ = ::open(file.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    }
    // Whole again: the final snapshot may land.
    csv_lost_rows_ = csv_fd_ < 0;
    if (csv_lost_rows_) lose_csv_rows();
  } else {
    (void)write_csv_buffer();
  }
  for (const auto& [iteration, ranks] : recent_) {
    write_rank_logs(iteration_dir(dir_, iteration), ranks);
  }
  recent_.clear();
  {
    std::ofstream bugs(dir_ / "bugs.txt");
    for (const BugRecord& bug : result.bugs) {
      bugs << '[' << rt::to_string(bug.outcome) << "] "
           << ckpt::escape(bug.message)
           << "\n  first_iteration=" << bug.first_iteration
           << " occurrences=" << bug.occurrences << " nprocs=" << bug.nprocs
           << " focus=" << bug.focus << " flaky=" << (bug.flaky ? 1 : 0)
           << "\n  inputs:";
      for (const auto& [name, value] : bug.named_inputs) {
        bugs << ' ' << name << '=' << value;
      }
      bugs << "\n";
      if (!bug.decisions.empty()) {
        bugs << "  decisions:";
        for (const minimpi::MatchDecision& d : bug.decisions) {
          bugs << ' ' << d.rank << '/' << d.seq << "->" << d.src;
        }
        bugs << "\n";
      }
    }
  }
  {
    std::ofstream summary(dir_ / "summary.txt");
    summary << "iterations " << result.iterations.size() << '\n'
            << "covered_branches " << result.covered_branches << '\n'
            << "reachable_branches " << result.reachable_branches << '\n'
            << "coverage_rate " << result.coverage_rate << '\n'
            << "max_constraint_set " << result.max_constraint_set << '\n'
            << "depth_bound_used " << result.depth_bound_used << '\n'
            << "restarts " << result.restarts << '\n'
            << "transient_retries " << result.transient_retries << '\n'
            << "focus_replans " << result.focus_replans << '\n'
            << "sandbox_runs " << result.sandbox_runs << '\n'
            << "sandbox_signal_kills " << result.sandbox_signal_kills << '\n'
            << "sandbox_hang_kills " << result.sandbox_hang_kills << '\n'
            << "sandbox_harvest_bytes " << result.sandbox_harvest_bytes
            << '\n'
            << "resumed " << (result.resumed ? 1 : 0) << '\n'
            << "bugs " << result.bugs.size() << '\n'
            << "interleavings_enqueued " << result.interleavings_enqueued
            << '\n'
            << "interleavings_run " << result.interleavings_run << '\n'
            << "interleavings_pruned " << result.interleavings_pruned << '\n'
            << "interleavings_capped " << result.interleavings_capped << '\n'
            << "deadlocks_found " << result.deadlocks_found << '\n'
            << "orphan_messages_found " << result.orphan_messages_found
            << '\n'
            << "total_seconds " << result.total_seconds << '\n';
  }
}

void SessionWriter::write_ledger(const CoverageLedger& ledger,
                                 const rt::BranchTable& table) {
  std::ofstream out(dir_ / "ledger.csv");
  ledger.write_csv(out, table);
}

void SessionWriter::write_checkpoint(ckpt::CampaignCheckpoint checkpoint,
                                     bool sync) {
  // The snapshot commits the streams as they are now.
  if (journal_ != nullptr) journal_->flush();
  const fs::path log = dir_ / kLogFile;
  // Without a rows frame (snapshots off) the CSV itself must hold the rows
  // the snapshot commits.
  if (log_fd_ < 0 || csv_lost_rows_ ||
      (!snapshots_ &&
       (!write_csv_buffer() || (sync && ::fsync(csv_fd_) != 0)))) {
    obs::note_artifact_write_error("checkpoint", log.string());
    return;
  }
  const std::size_t rows_end = record_.size();
  seal_frame(record_, 0, Kind::kRows, csv_bytes_ - (rows_end - kFrameHeader));
  checkpoint.streams.csv_bytes = csv_bytes_;
  checkpoint.streams.journal_bytes =
      journal_ != nullptr ? journal_->file_bytes() : 0;
  record_.append(kFrameHeader, '\0');
  std::ostringstream text;
  checkpoint.write(text);
  record_ += text.view();
  seal_frame(record_, rows_end, Kind::kSnapshot, csv_bytes_);
  if (!append_record(sync)) {
    record_.resize(rows_end);  // the rows wait for the next record
    obs::note_artifact_write_error("checkpoint", log.string());
    return;
  }
  if (sync && prev_snapshot_at_ > 0 &&
      log_bytes_ > kCompactFactor * (record_.size() - rows_end)) {
    compact();
  }
  std::swap(record_, prev_record_);
  prev_snapshot_at_ = rows_end;
  record_.assign(kFrameHeader, '\0');
}

bool SessionWriter::append_record(bool sync) {
  bool ok = write_all(log_fd_, record_);
  if (ok && sync) {
    ok = ::fdatasync(log_fd_) == 0 && (!log_dir_unsynced_ || sync_path(dir_));
    log_dir_unsynced_ = log_dir_unsynced_ && !ok;
  }
  if (ok) {
    log_bytes_ += record_.size();
    return true;
  }
  // No torn record may stay in front of the next one.
  (void)::ftruncate(log_fd_, static_cast<off_t>(log_bytes_));
  return false;
}

void SessionWriter::compact() {
  // The older snapshot's history below its commit point leaves the log,
  // so the CSV must hold it durably first.
  const fs::path log = dir_ / kLogFile;
  const std::string_view older =
      std::string_view(prev_record_).substr(prev_snapshot_at_);
  std::string bytes;
  bytes.reserve(older.size() + record_.size());
  bytes.append(older).append(record_);
  if (!write_csv_buffer() || ::fsync(csv_fd_) != 0 ||
      !replace_file(log, bytes, /*sync=*/true)) {
    obs::note_artifact_write_error("checkpoint", log.string());
    return;
  }
  // The old descriptor names the replaced file now.
  ::close(log_fd_);
  log_bytes_ = bytes.size();
  log_fd_ = ::open(log.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (log_fd_ < 0 || !sync_path(dir_)) {
    obs::note_artifact_write_error("checkpoint", log.string());
  }
}

}  // namespace compi
