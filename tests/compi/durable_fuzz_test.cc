// Fuzzing the durable-format parsers: random truncation and bit-flips of
// the snapshot text, journal.jsonl, iterations.csv, ledger.csv, bugs.txt
// and summary.txt must NEVER crash the readers — every corruption degrades
// to a clean fallback (nullopt / skipped lines / empty vector), and a
// resumed campaign over a corrupted session starts fresh and still
// completes.  A crash at every byte offset past the last snapshot, and a
// power loss that took any unsynced part of iterations.csv, must resume to
// the uninterrupted session.
//
// The corpus is real: one serial and one 2-worker fig2 session are run
// once and their artifacts mutated deterministically (mt19937, fixed
// seed), so failures reproduce exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "compi/checkpoint.h"
#include "compi/driver.h"
#include "compi/explain.h"
#include "compi/session.h"
#include "obs/journal.h"
#include "sandbox/wire.h"
#include "tests/compi/fig2_target.h"
#include "tests/compi/session_log_util.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;
using compi::testing::snapshot_index;
using compi::testing::snapshot_text;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_fuzz_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::string slurp(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const fs::path& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Pristine artifacts from one real session of each shape, produced once.
struct Corpus {
  std::string serial_checkpoint;
  std::string parallel_checkpoint;
  /// A current-version snapshot with the coordinator section populated
  /// (leases and shard cursors with hostile shard names), as
  /// `compi coordinate` writes.
  std::string coordinator_checkpoint;
  /// A serial session killed halfway: its newest snapshot and the one
  /// before it, its session log and its iterations.csv.
  std::string killed_checkpoint;
  std::string killed_bak;
  std::vector<SessionLogFrame> killed_log;
  std::string killed_csv;
  std::string journal;
  std::string iterations_csv;
  std::string ledger_csv;
  std::string bugs_txt;
  std::string summary_txt;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus out;
    {
      TempDir dir;
      CampaignOptions opts;
      opts.seed = 11;
      opts.iterations = 40;
      opts.initial_nprocs = 4;
      opts.max_procs = 8;
      opts.dfs_phase_iterations = 20;
      opts.checkpoint_interval = 5;
      opts.journal = true;
      opts.log_dir = dir.path.string();
      (void)Campaign(fig2_target(), opts).run();
      out.serial_checkpoint = snapshot_text(dir.path, 0);
      out.journal = slurp(dir.path / "journal.jsonl");
      out.iterations_csv = slurp(dir.path / "iterations.csv");
      out.ledger_csv = slurp(dir.path / "ledger.csv");
      out.bugs_txt = slurp(dir.path / "bugs.txt");
      out.summary_txt = slurp(dir.path / "summary.txt");
    }
    {
      TempDir dir;
      CampaignOptions opts;
      opts.seed = 11;
      opts.iterations = 40;
      opts.initial_nprocs = 4;
      opts.max_procs = 8;
      opts.dfs_phase_iterations = 20;
      opts.checkpoint_interval = 5;
      opts.workers = 2;
      opts.log_dir = dir.path.string();
      (void)Campaign(fig2_target(), opts).run();
      out.parallel_checkpoint = snapshot_text(dir.path, 0);
    }
    {
      TempDir dir;
      CampaignOptions opts;
      opts.seed = 11;
      opts.iterations = 40;
      opts.initial_nprocs = 4;
      opts.max_procs = 8;
      opts.dfs_phase_iterations = 20;
      opts.checkpoint_interval = 5;
      opts.halt_after_iterations = 20;
      opts.log_dir = dir.path.string();
      (void)Campaign(fig2_target(), opts).run();
      out.killed_checkpoint = snapshot_text(dir.path, 0);
      out.killed_bak = snapshot_text(dir.path, 1);
      out.killed_log = read_session_log(dir.path);
      out.killed_csv = slurp(dir.path / "iterations.csv");
    }
    {
      // Coordinator snapshots are the serial shape plus the coord section;
      // graft one onto the real serial snapshot so every other field stays
      // a genuine campaign state.
      std::istringstream is(out.serial_checkpoint);
      std::optional<ckpt::CampaignCheckpoint> cp =
          ckpt::CampaignCheckpoint::read(is);
      if (cp.has_value()) {
        cp->is_coordinator = true;
        cp->history_rows = 0;  // a coordinator keeps no iterations.csv
        cp->coord_budget = 480;
        cp->coord_completed = 123;
        cp->coord_next_lease_id = 9;
        cp->coord_leases.push_back({7, "rack 7@2a", 16});
        cp->coord_leases.push_back({8, "line\nbreak@ff", 4});
        cp->coord_shards.push_back({"rack 7@2a", 64, 3});
        cp->coord_shards.push_back({"line\nbreak@ff", 59, 0});
        std::ostringstream os;
        cp->write(os);
        out.coordinator_checkpoint = os.str();
      }
    }
    return out;
  }();
  return c;
}

/// One random mutation: truncate at a random offset, flip 1-8 random
/// bits, or splice a short burst of random bytes.
std::string mutate(const std::string& pristine, std::mt19937& rng) {
  std::string bytes = pristine;
  if (bytes.empty()) return bytes;
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 0: {  // truncation (torn write)
      bytes.resize(std::uniform_int_distribution<std::size_t>(
          0, bytes.size() - 1)(rng));
      break;
    }
    case 1: {  // bit flips (media corruption)
      const int flips = std::uniform_int_distribution<int>(1, 8)(rng);
      for (int i = 0; i < flips; ++i) {
        const std::size_t pos = std::uniform_int_distribution<std::size_t>(
            0, bytes.size() - 1)(rng);
        bytes[pos] = static_cast<char>(
            bytes[pos] ^ (1 << std::uniform_int_distribution<int>(0, 7)(rng)));
      }
      break;
    }
    default: {  // garbage splice (interleaved writer residue)
      const std::size_t pos = std::uniform_int_distribution<std::size_t>(
          0, bytes.size() - 1)(rng);
      std::string burst;
      const int len = std::uniform_int_distribution<int>(1, 64)(rng);
      for (int i = 0; i < len; ++i) {
        burst.push_back(static_cast<char>(
            std::uniform_int_distribution<int>(0, 255)(rng)));
      }
      bytes.insert(pos, burst);
      break;
    }
  }
  return bytes;
}

constexpr int kMutationsPerArtifact = 120;

TEST(DurableFuzz, CheckpointReadNeverCrashes) {
  std::mt19937 rng(0xC0FFEE);
  for (const std::string* pristine :
       {&corpus().serial_checkpoint, &corpus().parallel_checkpoint,
        &corpus().coordinator_checkpoint}) {
    ASSERT_FALSE(pristine->empty());
    // Sanity: the unmutated snapshot parses.
    {
      std::istringstream is(*pristine);
      EXPECT_TRUE(ckpt::CampaignCheckpoint::read(is).has_value());
    }
    for (int i = 0; i < kMutationsPerArtifact; ++i) {
      std::istringstream is(mutate(*pristine, rng));
      // Either a clean reject or a fully parsed struct — never a crash.
      (void)ckpt::CampaignCheckpoint::read(is);
    }
  }
}

TEST(DurableFuzz, OldVersionCheckpointIsRejectedCleanly) {
  // v8 (top-level serial plan/strategy lines) and any other non-current
  // version must be refused by design: the campaign falls back to a
  // fresh start.
  for (const char* version :
       {"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "99", "-5"}) {
    std::string bytes = corpus().serial_checkpoint;
    const std::string current =
        "compi-checkpoint " + std::to_string(ckpt::CampaignCheckpoint::kVersion);
    ASSERT_EQ(bytes.rfind(current, 0), 0u);
    bytes.replace(0, current.size(),
                  std::string("compi-checkpoint ") + version);
    std::istringstream is(bytes);
    EXPECT_FALSE(ckpt::CampaignCheckpoint::read(is).has_value()) << version;
  }
}

TEST(DurableFuzz, JournalReadersTolerateAnyCorruption) {
  std::mt19937 rng(0x10BBED);
  TempDir dir;
  const fs::path file = dir.path / "journal.jsonl";
  ASSERT_FALSE(corpus().journal.empty());
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    spit(file, mutate(corpus().journal, rng));
    std::size_t malformed = 0;
    (void)obs::read_journal(file, &malformed);
    // A resume cuts the journal back to the snapshot's length, which a
    // mutated file may fall short of: never a crash, and the kept bytes are
    // exactly that length or whole lines.
    const std::uint64_t length = std::uniform_int_distribution<std::uint64_t>(
        0, corpus().journal.size() + 64)(rng);
    obs::Journal j;
    SessionWriter(dir.path).resume_iterations({0, length}, {}, &j);
    j.close();
    const std::string kept = slurp(file);
    EXPECT_TRUE(kept.size() == length ||
                (kept.size() < length &&
                 (kept.empty() || kept.back() == '\n')))
        << kept.size() << " of " << length;
  }
}

TEST(DurableFuzz, SessionCsvReadersTolerateAnyCorruption) {
  std::mt19937 rng(0x5E55104);
  TempDir dir;
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    spit(dir.path / "ledger.csv", mutate(corpus().ledger_csv, rng));
    spit(dir.path / "iterations.csv", mutate(corpus().iterations_csv, rng));
    spit(dir.path / "journal.jsonl", mutate(corpus().journal, rng));
    spit(dir.path / "bugs.txt", mutate(corpus().bugs_txt, rng));
    spit(dir.path / "summary.txt", mutate(corpus().summary_txt, rng));
    (void)read_ledger_csv(dir.path / "ledger.csv");
    (void)read_bugs(dir.path / "bugs.txt");
    (void)read_summary(dir.path / "summary.txt");
    // --explain replays the whole directory; it must render or decline.
    std::ostringstream report;
    (void)explain_session(dir.path, report);
  }
}

TEST(DurableFuzz, ForkServerWireFramesTolerateAnyCorruption) {
  // The fork-server control/status dialect rides the same length-prefixed
  // framing as the result pipe.  Truncated, bit-flipped, or spliced frame
  // streams must never crash the supervisor-side parsers — the engine's
  // contract is a clean reject (and a cold-fork fallback), not a fault.
  std::mt19937 rng(0xF0AC5E);

  solver::Assignment inputs;
  inputs[0] = 77;
  inputs[1] = 33;
  minimpi::LaunchSpec spec;
  spec.nprocs = 4;
  spec.focus = 2;
  spec.inputs = &inputs;
  spec.match_plan = {{0, 0, 2}, {1, 1, 0}};
  spec.chaos.crash_rank = 1;

  rt::VarRegistry registry;
  registry.intern("x", rt::VarKind::kRegular, solver::int32_domain(), 500);
  registry.intern("y", rt::VarKind::kRegular, solver::int32_domain(), 500);

  std::string ctl_stream;  // what the supervisor sends the server
  sandbox::encode_registry(registry, 0, ctl_stream);
  sandbox::encode_spawn_request(spec, std::chrono::milliseconds(5000),
                                ctl_stream);

  std::string st_stream;  // what the server answers with
  sandbox::append_frame(st_stream, sandbox::FrameType::kHello,
                        "compi-fork-server 1 12345");
  sandbox::append_frame(st_stream, sandbox::FrameType::kStatus,
                        "spawned 12346");
  sandbox::append_frame(st_stream, sandbox::FrameType::kStatus, "reaped 0");
  sandbox::append_frame(st_stream, sandbox::FrameType::kStatus,
                        "reject malformed spawn request");

  for (const std::string* pristine : {&ctl_stream, &st_stream}) {
    for (int i = 0; i < kMutationsPerArtifact; ++i) {
      const std::string bytes = mutate(*pristine, rng);
      sandbox::FrameReader reader;
      reader.feed(bytes.data(), bytes.size());
      while (std::optional<sandbox::Frame> f = reader.next()) {
        // Decode each surviving frame exactly the way the two endpoints
        // do; success or clean rejection are both acceptable.
        switch (f->type) {
          case sandbox::FrameType::kSpawn: {
            minimpi::LaunchSpec out;
            solver::Assignment out_inputs;
            std::chrono::milliseconds hang{0};
            (void)sandbox::decode_spawn_request(f->payload, out, out_inputs,
                                                hang);
            break;
          }
          case sandbox::FrameType::kRegistry: {
            rt::VarRegistry scratch;
            (void)sandbox::apply_registry(f->payload, scratch);
            break;
          }
          case sandbox::FrameType::kResult: {
            minimpi::RunResult out;
            (void)sandbox::decode_run_result(f->payload, registry.size(),
                                             out);
            break;
          }
          default:
            break;  // kHello/kStatus/kError/kSignal: free-text payloads
        }
      }
    }
  }
}

/// Writes a session log holding one snapshot, `text`, and the rows frame
/// with all of `csv` before it.
void spit_log(const fs::path& dir, const std::string& csv,
              const std::string& text) {
  ASSERT_TRUE(write_session_log(
      dir, {{SessionLogFrame::Kind::kRows, 0, csv},
            {SessionLogFrame::Kind::kSnapshot, csv.size(), text}}));
}

TEST(DurableFuzz, ResumeOverCorruptedCheckpointStillCompletes) {
  // End to end: a resume pointed at a corrupted snapshot (and no usable
  // one before it) must fall back to a fresh campaign and run to its
  // budget.
  std::mt19937 rng(0x2E5013);
  for (int i = 0; i < 4; ++i) {
    TempDir dir;
    // The rows the history is rebuilt from, so a mutated snapshot that
    // still parses reaches the resume path instead of failing the rebuild.
    spit_log(dir.path, corpus().iterations_csv,
             mutate(corpus().serial_checkpoint, rng));
    spit(dir.path / "iterations.csv", corpus().iterations_csv);
    CampaignOptions opts;
    opts.seed = 11;
    opts.iterations = 30;
    opts.initial_nprocs = 4;
    opts.max_procs = 8;
    opts.dfs_phase_iterations = 20;
    opts.resume = true;
    opts.log_dir = dir.path.string();
    const CampaignResult result = Campaign(fig2_target(), opts).run();
    EXPECT_EQ(result.iterations.size(), 30u)
        << (result.resumed ? "resumed a corrupt snapshot?" : "fresh");
  }
}

TEST(DurableFuzz, ResumeOverCorruptedCsvStillCompletes) {
  // The session log is intact but iterations.csv is mutated.  The log
  // holds the snapshot's rows, so resume continues and restores the CSV;
  // either way the campaign runs to its full budget with every ordinal
  // exactly once — never a short history.
  std::mt19937 rng(0xC5F00D);
  ASSERT_FALSE(corpus().killed_checkpoint.empty());
  {
    // Sanity: the pristine pair rebuilds the snapshot's 20 rows.
    TempDir dir;
    ASSERT_TRUE(write_session_log(dir.path, corpus().killed_log));
    spit(dir.path / "iterations.csv", corpus().killed_csv);
    const auto snapshot = read_checkpoint(dir.path);
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_EQ(snapshot->iterations.size(), 20u);
  }
  for (int i = 0; i < 12; ++i) {
    TempDir dir;
    ASSERT_TRUE(write_session_log(dir.path, corpus().killed_log));
    spit(dir.path / "iterations.csv", mutate(corpus().killed_csv, rng));
    CampaignOptions opts;
    opts.seed = 11;
    opts.iterations = 40;
    opts.initial_nprocs = 4;
    opts.max_procs = 8;
    opts.dfs_phase_iterations = 20;
    opts.checkpoint_interval = 5;
    opts.resume = true;
    opts.log_dir = dir.path.string();
    const CampaignResult result = Campaign(fig2_target(), opts).run();
    ASSERT_EQ(result.iterations.size(), 40u)
        << (result.resumed ? "resumed" : "fresh");
    for (std::size_t k = 0; k < result.iterations.size(); ++k) {
      EXPECT_EQ(result.iterations[k].iteration, static_cast<int>(k));
    }
  }
}

TEST(DurableFuzz, DamagedHistoryCountFallsBackToBak) {
  // One flipped digit in a mid-campaign snapshot's row count would let a
  // resume continue with ordinals missing from its history.  The snapshot
  // must read as unreadable instead, so the one before it is used.
  const std::string line = "\niterations 20 0\n";
  const std::size_t at = corpus().killed_checkpoint.find(line);
  ASSERT_NE(at, std::string::npos);
  ASSERT_FALSE(corpus().killed_bak.empty());
  for (const char* count : {"19", "10", "2", "0", "21"}) {
    std::string bytes = corpus().killed_checkpoint;
    bytes.replace(at, line.size(),
                  std::string("\niterations ") + count + " 0\n");
    TempDir dir;
    spit_log(dir.path, corpus().killed_csv, bytes);
    spit(dir.path / "iterations.csv", corpus().killed_csv);
    EXPECT_FALSE(read_checkpoint(dir.path).has_value()) << count;
    std::vector<SessionLogFrame> frames = corpus().killed_log;
    frames[snapshot_index(frames, 0)].body = bytes;
    ASSERT_TRUE(write_session_log(dir.path, frames));
    const auto snapshot = read_checkpoint(dir.path);
    ASSERT_TRUE(snapshot.has_value()) << count;
    EXPECT_GT(snapshot->next_iteration, 0);
    EXPECT_EQ(snapshot->iterations.size(),
              static_cast<std::size_t>(snapshot->next_iteration));
  }
}

// ---- a crash at every byte offset ----

/// fig2 with --journal and a snapshot every 5 iterations.
CampaignOptions crash_options(const fs::path& dir) {
  CampaignOptions opts;
  opts.seed = 11;
  opts.iterations = 24;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 20;
  opts.checkpoint_interval = 5;
  opts.journal = true;
  opts.log_dir = dir.string();
  return opts;
}

/// What a resume must reproduce: iterations.csv without its timing
/// columns (6 and 7), coverage_timeline.csv, bugs.txt, ledger.csv and the
/// journal's sequence of (type, iter) pairs.  `diagnosis` events are left
/// out: they are stall verdicts on the wall clock, and a resumed process
/// starts its verdict history afresh.
std::string session_image(const fs::path& dir) {
  std::string image;
  std::istringstream csv(slurp(dir / "iterations.csv"));
  for (std::string line; std::getline(csv, line);) {
    std::istringstream cells(line);
    std::string cell;
    for (int col = 0; std::getline(cells, cell, ','); ++col) {
      image += col == 6 || col == 7 ? std::string("_") : cell;
      image += ',';
    }
    image += '\n';
  }
  for (const char* file : {"coverage_timeline.csv", "bugs.txt", "ledger.csv"}) {
    image += std::string("== ") + file + '\n' + slurp(dir / file);
  }
  image += "== journal\n";
  for (const obs::ParsedEvent& ev : obs::read_journal(dir / "journal.jsonl")) {
    if (ev.type != "diagnosis") {
      image += ev.type + ' ' + std::to_string(ev.iter()) + '\n';
    }
  }
  return image;
}

/// The lines of `text` whose ordinal (`key` reads it) lies in [from, to).
template <typename Key>
std::string lines_between(const std::string& text, int from, int to,
                          Key key) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    const int ordinal = key(line);
    if (ordinal >= from && ordinal < to) out += line + '\n';
  }
  return out;
}

/// The session a crash test starts from: fig2 halted at 20, so the newest
/// snapshot of its log is that of 20 and the one before it that of 15,
/// plus what the uninterrupted session looks like.
struct HaltedSession {
  std::string want;  // session_image of the uninterrupted session
  std::string log, csv, journal;
  std::size_t csv_at = 0, journal_at = 0;  // the newest snapshot's commit
  /// What the killed process had appended past its last snapshot when it
  /// died: the rows and events of iterations 20..23, as the uninterrupted
  /// session wrote them (its final snapshot would have committed them).
  /// The halted run's own tail, its final stall verdict, comes first.
  std::string csv_tail, journal_tail;
};

const HaltedSession& halted_session() {
  static const HaltedSession h = [] {
    HaltedSession out;
    TempDir full;
    (void)Campaign(fig2_target(), crash_options(full.path)).run();
    out.want = session_image(full.path);
    TempDir halted;
    CampaignOptions halt_opts = crash_options(halted.path);
    halt_opts.halt_after_iterations = 20;
    (void)Campaign(fig2_target(), halt_opts).run();
    out.log = slurp(halted.path / "session.log");
    out.csv = slurp(halted.path / "iterations.csv");
    out.journal = slurp(halted.path / "journal.jsonl");
    std::istringstream text(snapshot_text(halted.path, 0));
    const std::optional<ckpt::CampaignCheckpoint> snapshot =
        ckpt::CampaignCheckpoint::read(text);
    if (!snapshot || snapshot->next_iteration != 20) return out;
    out.csv_at = snapshot->streams.csv_bytes;
    out.journal_at = snapshot->streams.journal_bytes;
    out.csv_tail = lines_between(
        slurp(full.path / "iterations.csv"), 20, 24,
        [](const std::string& line) { return std::atoi(line.c_str()); });
    out.journal_tail =
        out.journal.substr(std::min(out.journal_at, out.journal.size())) +
        lines_between(slurp(full.path / "journal.jsonl"), 20, 24,
                      [](const std::string& line) {
                        const auto ev = obs::parse_journal_line(line);
                        return ev ? ev->iter() : -1;
                      });
    return out;
  }();
  return h;
}

/// Resumes the session in `dir` and compares it with the uninterrupted one.
bool resume_equals_full(const fs::path& dir) {
  CampaignOptions opts = crash_options(dir);
  opts.resume = true;
  const CampaignResult result = Campaign(fig2_target(), opts).run();
  return result.resumed && session_image(dir) == halted_session().want;
}

TEST(DurableFuzz, CrashAtEveryByteOffsetResumesTheSameSession) {
  const HaltedSession& h = halted_session();
  ASSERT_EQ(h.csv_at, h.csv.size());
  ASSERT_LE(h.journal_at, h.journal.size());
  ASSERT_FALSE(h.csv_tail.empty());
  ASSERT_FALSE(h.journal_tail.empty());

  // A crash after `cut` more bytes reached each stream.
  const std::size_t tail = std::max(h.csv_tail.size(), h.journal_tail.size());
  for (std::size_t cut = 0; cut <= tail; ++cut) {
    TempDir dir;
    spit(dir.path / "session.log", h.log);
    spit(dir.path / "iterations.csv",
         h.csv + h.csv_tail.substr(0, std::min(cut, h.csv_tail.size())));
    spit(dir.path / "journal.jsonl",
         h.journal.substr(0, h.journal_at) +
             h.journal_tail.substr(0, std::min(cut, h.journal_tail.size())));
    ASSERT_TRUE(resume_equals_full(dir.path)) << "streams cut at +" << cut;
  }

  // A crash that tore the last record of the log (the rows since 15 and
  // the snapshot of 20): unless the cut left it whole, the snapshot of 15
  // resumes.
  TempDir before;
  std::vector<SessionLogFrame> frames;
  {
    TempDir scan;
    spit(scan.path / "session.log", h.log);
    frames = read_session_log(scan.path);
  }
  const std::size_t previous = snapshot_index(frames, 1);
  ASSERT_LT(previous, frames.size());
  ASSERT_TRUE(write_session_log(before.path, {frames.begin(),
                                              frames.begin() + previous + 1}));
  const std::size_t record = slurp(before.path / "session.log").size();
  for (std::size_t cut = record; cut < h.log.size(); ++cut) {
    TempDir dir;
    spit(dir.path / "session.log", h.log.substr(0, cut));
    spit(dir.path / "iterations.csv", h.csv);
    spit(dir.path / "journal.jsonl", h.journal);
    ASSERT_TRUE(resume_equals_full(dir.path)) << "session.log cut at " << cut;
  }
}

TEST(DurableFuzz, LogCutAtEveryByteOffsetReadsTheNewestIntactSnapshot) {
  // The reader stops at the first frame a cut tore, so it reads back the
  // newest snapshot wholly inside the cut (none before the first one).
  const HaltedSession& h = halted_session();
  TempDir scan;
  spit(scan.path / "session.log", h.log);
  const std::vector<SessionLogFrame> frames = read_session_log(scan.path);
  // Where each frame ends, and the resume point of each snapshot.
  std::vector<std::size_t> ends;
  std::vector<int> resume_points;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(write_session_log(scan.path, {frames.begin(),
                                              frames.begin() + i + 1}));
    ends.push_back(slurp(scan.path / "session.log").size());
    std::istringstream text(frames[i].body);
    const auto c = ckpt::CampaignCheckpoint::read(text);
    resume_points.push_back(
        frames[i].kind == SessionLogFrame::Kind::kSnapshot && c
            ? c->next_iteration
            : -1);
  }
  ASSERT_EQ(ends.back(), h.log.size());
  TempDir dir;
  spit(dir.path / "iterations.csv", h.csv);
  for (std::size_t cut = 0; cut <= h.log.size(); ++cut) {
    spit(dir.path / "session.log", h.log.substr(0, cut));
    int want = -1;
    for (std::size_t i = 0; i < ends.size() && ends[i] <= cut; ++i) {
      if (resume_points[i] >= 0) want = resume_points[i];
    }
    const auto got = read_checkpoint(dir.path);
    ASSERT_EQ(got ? got->next_iteration : -1, want) << "cut at " << cut;
  }
}

TEST(DurableFuzz, PowerLossBelowTheCommitPointResumesTheSameSession) {
  // After a snapshot committed, power loss may take any unsynced part of
  // iterations.csv: it is synced only below the log's base (0 here, the
  // log was never compacted).  The log holds the rest, so every cut below
  // the commit point resumes to the uninterrupted session.
  const HaltedSession& h = halted_session();
  ASSERT_EQ(h.csv_at, h.csv.size());
  for (std::size_t cut = 0; cut < h.csv_at; ++cut) {
    TempDir dir;
    spit(dir.path / "session.log", h.log);
    spit(dir.path / "iterations.csv", h.csv.substr(0, cut));
    spit(dir.path / "journal.jsonl", h.journal);
    ASSERT_TRUE(resume_equals_full(dir.path))
        << "iterations.csv cut at " << cut;
  }
}

}  // namespace
}  // namespace compi
