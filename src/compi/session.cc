#include "compi/session.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <functional>
#include <fstream>
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
constexpr const char* kCsvHeader =
    "iteration,nprocs,focus,outcome,constraint_set_size,"
    "covered_branches,exec_seconds,solve_seconds,restart,"
    "solver_nodes,retries,worker,interleaving\n";

constexpr const char* kTimelineHeader =
    "iteration,covered_branches,new_branches\n";

/// A timing at a fixed width: 17 significant digits, so a restored row is
/// bit-exact, and a row's length does not follow the host's timing, so
/// neither does the CSV length a snapshot commits.
std::string_view fixed_width(double v, char (&buf)[32]) {
  return {buf, std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::scientific, 16)
                   .ptr};
}

void write_csv_row(std::ostream& csv, const IterationRecord& r) {
  char exec[32], solve[32];
  csv << r.iteration << ',' << r.nprocs << ',' << r.focus << ','
      << rt::to_string(r.outcome) << ',' << r.constraint_set_size << ','
      << r.covered_branches << ',' << fixed_width(r.exec_seconds, exec)
      << ',' << fixed_width(r.solve_seconds, solve) << ','
      << (r.restart ? 1 : 0) << ',' << r.solver_nodes << ',' << r.retries
      << ',' << r.worker << ',' << r.interleaving << '\n';
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

/// Fills c.iterations from the snapshot's committed CSV prefix; false
/// unless that is the header plus exactly c.history_rows parseable rows
/// with increasing ordinals below c.next_iteration.
bool load_history(const fs::path& csv, ckpt::CampaignCheckpoint& c) {
  c.iterations.clear();
  if (c.streams.csv_bytes == 0) return c.history_rows == 0;
  const std::string bytes = slurp(csv);
  if (bytes.size() < c.streams.csv_bytes) return false;
  const std::string_view text(bytes.data(), c.streams.csv_bytes);
  const std::string_view header(kCsvHeader);
  if (!text.starts_with(header) || text.back() != '\n' ||
      parse_rows(text.substr(header.size()), c.iterations) != 0 ||
      c.iterations.size() != c.history_rows) {
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
bool replace_file(const fs::path& file,
                  const std::function<void(std::ostream&)>& body) {
  const fs::path tmp = fs::path(file) += ".tmp";
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out.is_open()) {
      body(out);
      out.flush();
      written = out.good();
    }
  }
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

}  // namespace

std::optional<ckpt::CampaignCheckpoint> read_checkpoint(
    const fs::path& dir,
    const std::function<bool(const ckpt::CampaignCheckpoint&)>& usable) {
  const auto try_read =
      [&](const fs::path& file) -> std::optional<ckpt::CampaignCheckpoint> {
    std::ifstream in(file);
    if (!in) return std::nullopt;
    std::optional<ckpt::CampaignCheckpoint> c =
        ckpt::CampaignCheckpoint::read(in);
    if (c && (!load_history(dir / "iterations.csv", *c) ||
              (usable && !usable(*c)))) {
      return std::nullopt;
    }
    return c;
  };
  if (auto c = try_read(dir / "checkpoint.txt")) return c;
  // Torn or truncated snapshot (the writer died mid-file, or the disk
  // filled), or history rows it commits gone missing: fall back to the
  // previous complete snapshot kept as .bak, so the session resumes from
  // the last good checkpoint instead of starting over.
  return try_read(dir / "checkpoint.txt.bak");
}

std::vector<IterationRecord> read_iterations(const fs::path& csv) {
  std::vector<IterationRecord> rows;
  (void)parse_rows(slurp(csv), rows);
  return rows;
}

SessionWriter::SessionWriter(fs::path dir, int keep_rank_logs)
    : dir_(std::move(dir)), keep_rank_logs_(keep_rank_logs) {
  fs::create_directories(dir_);
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
  // which the resumed campaign is about to re-run.  read_checkpoint
  // verified the CSV holds its committed bytes; the journal has no fsync,
  // so power loss may have taken some of its own.
  const fs::path csv = dir_ / "iterations.csv";
  const bool cut = cut_file(csv, at.csv_bytes);
  csv_.open(csv, std::ios::app);
  if (at.csv_bytes == 0) csv_ << kCsvHeader;
  if (!cut || !csv_.good()) lose_csv_rows();
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

void SessionWriter::append_iteration(const IterationRecord& rec) {
  if (!csv_.is_open()) return;
  write_csv_row(csv_, rec);
  if (!csv_.good()) lose_csv_rows();  // a failed buffer drain (disk full)
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
  csv_.clear();
  csv_lost_rows_ = true;
}

bool SessionWriter::flush_iterations(bool sync) {
  if (csv_lost_rows_) return false;
  if (!csv_.is_open()) return true;  // no CSV stream (a bare writer)
  csv_.flush();
  bool ok = csv_.good();
  if (ok && sync) ok = sync_path(dir_ / "iterations.csv");
  if (!ok) lose_csv_rows();
  return ok;
}

void SessionWriter::write_summary(const CampaignResult& result) {
  timeline_.flush();
  if (csv_lost_rows_) {
    // Heal: a failed write lost rows, so write the file whole from the
    // result, through tmp + rename so a kill mid-rewrite cannot tear the
    // rows the last snapshot commits.  Appends continue on the new file.
    csv_.close();
    const fs::path file = dir_ / "iterations.csv";
    if (replace_file(file, [&](std::ostream& csv) {
          csv << kCsvHeader;
          result.iterations.visit(
              0, [&](const IterationRecord& r) { write_csv_row(csv, r); });
        })) {
      csv_lost_rows_ = false;  // whole again: the final snapshot may land
      csv_.open(file, std::ios::app);
    } else {
      lose_csv_rows();
    }
  } else if (csv_.is_open()) {
    csv_.flush();
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
  const fs::path final_path = dir_ / "checkpoint.txt";
  const fs::path tmp = dir_ / "checkpoint.txt.tmp";
  // The snapshot commits the streams as they are now: their bytes land
  // first, or the snapshot would not rebuild.
  bool written = flush_iterations(sync);
  timeline_.flush();
  if (journal_ != nullptr) journal_->flush();
  if (written) {
    const auto length = [this](const char* name) -> std::uint64_t {
      std::error_code ec;
      const std::uintmax_t size = fs::file_size(dir_ / name, ec);
      return ec ? 0 : size;
    };
    checkpoint.streams.csv_bytes = length("iterations.csv");
    if (journal_ != nullptr) {
      checkpoint.streams.journal_bytes = length("journal.jsonl");
    }
    std::ofstream out(tmp);
    written = out.is_open();
    if (written) {
      checkpoint.write(out);
      out.flush();
      written = out.good();
    }
  }
  if (written && sync) written = sync_path(tmp);
  // A failed or short tmp write (unwritable dir, disk full) must never
  // replace a complete snapshot with a torn one: report, drop the tmp,
  // keep the previous checkpoint (and its .bak) untouched.
  if (!written) {
    obs::note_artifact_write_error("checkpoint", final_path.string());
    std::error_code rm;
    fs::remove(tmp, rm);
    return;
  }
  // Demote the previous complete snapshot to .bak before the new one lands:
  // even if THIS write turns out torn (kill between the flush above and a
  // durable rename), read_checkpoint still finds a complete snapshot.
  std::error_code ec;
  fs::rename(final_path, dir_ / "checkpoint.txt.bak", ec);  // first write: ok
  fs::rename(tmp, final_path, ec);
  // The renames are directory entries: sync the directory so the new
  // snapshot's name, not just its bytes, survives power loss.
  if (ec || (sync && !sync_path(dir_))) {
    obs::note_artifact_write_error("checkpoint", final_path.string());
  }
}

}  // namespace compi
