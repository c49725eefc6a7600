#include "compi/explain.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>

#include "compi/driver.h"
#include "compi/ledger.h"
#include "compi/session.h"
#include "obs/journal.h"

namespace compi {
namespace {

std::int64_t to_int(const std::string& cell, std::int64_t fallback) {
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), v);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) return fallback;
  return v;
}

std::string cell_at(const std::vector<std::string>& cells, std::size_t i) {
  return i < cells.size() ? cells[i] : std::string{};
}

std::string fmt_seconds(double s) {
  std::string out = std::to_string(s);
  const auto dot = out.find('.');
  if (dot != std::string::npos && dot + 4 < out.size()) {
    out.resize(dot + 4);
  }
  return out + "s";
}

void print_timeline(std::ostream& os,
                    const IterationHistory& iters,
                    int max_milestones) {
  // Discovery iterations: every row where coverage grew past the previous
  // maximum (restarts can only repeat coverage, never shrink the merge).
  std::vector<const IterationRecord*> growth;
  std::size_t prev = 0;
  for (const IterationRecord& row : iters) {
    if (row.covered_branches > prev) {
      growth.push_back(&row);
      prev = row.covered_branches;
    }
  }
  os << "Coverage timeline (" << growth.size() << " discovery iterations";
  if (max_milestones > 0 &&
      growth.size() > static_cast<std::size_t>(max_milestones)) {
    os << ", thinned to " << max_milestones;
  }
  os << "):\n";
  if (growth.empty()) {
    os << "  (no coverage recorded)\n";
    return;
  }
  // Thin evenly, always keeping the first and last discovery.
  std::vector<const IterationRecord*> shown;
  const std::size_t limit =
      max_milestones > 0 ? static_cast<std::size_t>(max_milestones)
                         : growth.size();
  if (growth.size() <= limit) {
    shown = growth;
  } else {
    for (std::size_t i = 0; i < limit; ++i) {
      const std::size_t idx = i * (growth.size() - 1) / (limit - 1);
      if (shown.empty() || shown.back() != growth[idx]) {
        shown.push_back(growth[idx]);
      }
    }
  }
  os << "  iteration  covered\n";
  for (const IterationRecord* row : shown) {
    os << "  " << std::setw(9) << row->iteration << "  "
       << row->covered_branches << "\n";
  }
}

void print_near_misses(std::ostream& os,
                       const std::vector<LedgerCsvRow>& ledger,
                       int top_misses) {
  std::size_t never_taken = 0;
  std::vector<const LedgerCsvRow*> misses;
  for (const LedgerCsvRow& row : ledger) {
    if (row.covered) continue;
    ++never_taken;
    if (row.miss_attempts > 0) misses.push_back(&row);
  }
  std::stable_sort(misses.begin(), misses.end(),
                   [](const LedgerCsvRow* a, const LedgerCsvRow* b) {
                     return a->miss_attempts > b->miss_attempts;
                   });
  os << "Never-taken branches: " << never_taken << " (" << misses.size()
     << " with solver near misses)\n";
  const std::size_t n =
      std::min<std::size_t>(misses.size(),
                            top_misses > 0 ? static_cast<std::size_t>(
                                                 top_misses)
                                           : misses.size());
  for (std::size_t i = 0; i < n; ++i) {
    const LedgerCsvRow& row = *misses[i];
    os << "  " << row.site << " [" << row.function << "] arm=" << row.arm
       << "  attempts=" << row.miss_attempts
       << " last_iter=" << row.miss_last_iteration
       << (row.miss_budget_exhausted ? " (solver budget exhausted)"
                                     : " (UNSAT)")
       << "\n    nearest-miss constraint: " << row.miss_constraint << "\n";
  }
}

void print_rank_skew(std::ostream& os,
                     const std::vector<LedgerCsvRow>& ledger) {
  // branches[r] = distinct branches rank r has covered; hits[r] = total
  // (iteration, branch) pairs — the raw skew data from the ledger.
  std::vector<std::size_t> branches;
  std::vector<std::uint64_t> hits;
  std::size_t harvested_firsts = 0;
  for (const LedgerCsvRow& row : ledger) {
    if (!row.covered) continue;
    if (row.first_harvested) ++harvested_firsts;
    for (std::size_t r = 0; r < row.hits_per_rank.size(); ++r) {
      if (row.hits_per_rank[r] == 0) continue;
      if (branches.size() <= r) branches.resize(r + 1, 0);
      if (hits.size() <= r) hits.resize(r + 1, 0);
      ++branches[r];
      hits[r] += row.hits_per_rank[r];
    }
  }
  os << "Per-rank coverage (" << harvested_firsts
     << " first-hits recovered from sandbox harvest):\n";
  if (branches.empty()) {
    os << "  (no attributed coverage)\n";
    return;
  }
  const std::size_t max_branches =
      *std::max_element(branches.begin(), branches.end());
  os << "  rank  branches  hits\n";
  for (std::size_t r = 0; r < branches.size(); ++r) {
    os << "  " << std::setw(4) << r << "  " << std::setw(8) << branches[r]
       << "  " << hits[r];
    if (branches[r] == max_branches && max_branches > 0) os << "  <- widest";
    os << "\n";
  }
  const std::size_t min_branches =
      *std::min_element(branches.begin(), branches.end());
  if (min_branches > 0) {
    os << "  skew (widest/narrowest): "
       << static_cast<double>(max_branches) /
              static_cast<double>(min_branches)
       << "x\n";
  }
}

void print_solver_breakdown(std::ostream& os,
                            const IterationHistory& iters,
                            const std::vector<obs::ParsedEvent>& journal,
                            bool have_journal) {
  double exec_total = 0.0, solve_total = 0.0;
  std::int64_t nodes_total = 0;
  int retries_total = 0;
  for (const IterationRecord& row : iters) {
    exec_total += row.exec_seconds;
    solve_total += row.solve_seconds;
    nodes_total += row.solver_nodes;
    retries_total += row.retries;
  }
  os << "Solver: " << fmt_seconds(solve_total) << " solving vs "
     << fmt_seconds(exec_total) << " executing, " << nodes_total
     << " nodes, " << retries_total << " retries\n";
  if (!have_journal) {
    os << "  (no journal.jsonl — run with --journal for per-solve detail)\n";
    return;
  }
  std::int64_t solves = 0, sat = 0, unsat = 0, budget = 0;
  std::int64_t slice_sum = 0;
  std::map<std::string, std::int64_t> retry_kinds;
  std::int64_t kills = 0, chaos = 0;
  for (const obs::ParsedEvent& ev : journal) {
    if (ev.type == "solve") {
      ++solves;
      const bool is_sat = ev.boolean("sat").value_or(false);
      const bool is_budget = ev.boolean("budget_exhausted").value_or(false);
      if (is_sat) {
        ++sat;
      } else if (is_budget) {
        ++budget;
      } else {
        ++unsat;
      }
      slice_sum += ev.num("slice_size").value_or(0);
    } else if (ev.type == "retry") {
      ++retry_kinds[ev.str("kind").value_or("unknown")];
    } else if (ev.type == "sandbox_kill") {
      ++kills;
    } else if (ev.type == "chaos_armed") {
      ++chaos;
    }
  }
  os << "  solve attempts: " << solves << " (" << sat << " SAT, " << unsat
     << " UNSAT, " << budget << " budget-exhausted)\n";
  if (solves > 0) {
    os << "  mean dependency slice: "
       << static_cast<double>(slice_sum) / static_cast<double>(solves)
       << " constraints\n";
  }
  for (const auto& [kind, count] : retry_kinds) {
    os << "  retries (" << kind << "): " << count << "\n";
  }
  if (kills > 0) os << "  sandbox kills: " << kills << "\n";
  if (chaos > 0) os << "  chaos injections armed: " << chaos << "\n";
}

void print_matchings(std::ostream& os,
                     const IterationHistory& iters,
                     const std::vector<LedgerCsvRow>& ledger,
                     const std::vector<obs::ParsedEvent>& journal) {
  std::size_t replays = 0, deadlocks = 0, orphans = 0;
  for (const IterationRecord& row : iters) {
    if (row.interleaving >= 0) ++replays;
    if (row.outcome == rt::Outcome::kDeadlock) ++deadlocks;
    if (row.outcome == rt::Outcome::kOrphanMessage) ++orphans;
  }
  std::size_t interleaving_firsts = 0;
  for (const LedgerCsvRow& row : ledger) {
    if (row.covered && row.first_interleaving >= 0) ++interleaving_firsts;
  }
  std::int64_t choices = 0, wildcard_choices = 0;
  std::vector<std::string> cycles;
  for (const obs::ParsedEvent& ev : journal) {
    if (ev.type == "match_choice") {
      ++choices;
      if (ev.num("feasible").value_or(0) > 1) ++wildcard_choices;
    } else if (ev.type == "deadlock") {
      if (const auto cycle = ev.str("cycle");
          cycle && !cycle->empty() && cycles.size() < 3) {
        cycles.push_back(*cycle);
      }
    }
  }
  // Sessions with no wildcard decision, replay, deadlock or orphan get no
  // section at all.
  if (replays + deadlocks + orphans + interleaving_firsts == 0 &&
      choices == 0) {
    return;
  }
  os << "\nWildcard matchings:\n"
     << "  interleaving replays: " << replays << "\n"
     << "  deadlocks: " << deadlocks << ", orphan messages: " << orphans
     << "\n"
     << "  branches first covered by a replay: " << interleaving_firsts
     << "\n";
  if (choices > 0) {
    os << "  match choices journaled: " << choices << " ("
       << wildcard_choices << " with >1 feasible sender)\n";
  }
  for (const std::string& cycle : cycles) {
    os << "  wait-for cycle: " << cycle << "\n";
  }
}

/// The diagnosis engine journals one `diagnosis` event per verdict
/// TRANSITION, so the sequence reads as the campaign's stall history and
/// the last entry is why the session ended the way it did.
void print_stall_history(std::ostream& os,
                         const std::vector<obs::ParsedEvent>& journal) {
  std::vector<const obs::ParsedEvent*> verdicts;
  for (const obs::ParsedEvent& ev : journal) {
    if (ev.type == "diagnosis") verdicts.push_back(&ev);
  }
  if (verdicts.empty()) return;
  os << "\nWhy progress stopped:\n";
  for (const obs::ParsedEvent* ev : verdicts) {
    os << "  [" << fmt_seconds(ev->real("elapsed_seconds").value_or(0.0))
       << " iter " << ev->iter() << "] " << ev->str("kind").value_or("?")
       << " — " << ev->str("detail").value_or("") << "\n";
  }
  const obs::ParsedEvent& last = *verdicts.back();
  if (last.str("kind").value_or("") == "progressing") {
    os << "  (still earning coverage when the budget ran out)\n";
  }
}

}  // namespace

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell.push_back(c);
      }
    } else if (c == '"' && cell.empty()) {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell.push_back(c);
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

namespace {

std::vector<LedgerCsvRow> parse_ledger_csv(std::istream& in) {
  std::vector<LedgerCsvRow> rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = split_csv_row(line);
    LedgerCsvRow row;
    row.branch = to_int(cell_at(cells, 0), -1);
    row.site = cell_at(cells, 1);
    row.function = cell_at(cells, 2);
    const std::string arm = cell_at(cells, 3);
    row.arm = arm.empty() ? 'F' : arm[0];
    row.covered = to_int(cell_at(cells, 4), 0) != 0;
    row.first_iteration = to_int(cell_at(cells, 5), -1);
    row.first_focus = to_int(cell_at(cells, 6), -1);
    row.first_nprocs = to_int(cell_at(cells, 7), 0);
    row.first_rank = to_int(cell_at(cells, 8), -1);
    row.first_harvested = to_int(cell_at(cells, 9), 0) != 0;
    row.total_hits =
        static_cast<std::uint64_t>(to_int(cell_at(cells, 10), 0));
    const std::string per_rank = cell_at(cells, 11);
    std::string piece;
    for (char c : per_rank) {
      if (c == ':') {
        row.hits_per_rank.push_back(
            static_cast<std::uint32_t>(to_int(piece, 0)));
        piece.clear();
      } else {
        piece.push_back(c);
      }
    }
    if (!piece.empty()) {
      row.hits_per_rank.push_back(
          static_cast<std::uint32_t>(to_int(piece, 0)));
    }
    row.miss_attempts = to_int(cell_at(cells, 12), 0);
    row.miss_last_iteration = to_int(cell_at(cells, 13), -1);
    row.miss_budget_exhausted = to_int(cell_at(cells, 14), 0) != 0;
    row.miss_constraint = cell_at(cells, 15);
    row.first_inputs = cell_at(cells, 16);
    row.first_interleaving = to_int(cell_at(cells, 17), -1);
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The report body shared by explain_session and explain_live.
/// `journal_header` is the pre-rendered "journal events : ..." line (empty
/// when there is no journal to describe).
void render_report(std::ostream& os, const std::vector<LedgerCsvRow>& ledger,
                   const IterationHistory& iters,
                   const std::vector<obs::ParsedEvent>& journal,
                   bool have_journal, const std::string& journal_header,
                   const ExplainOptions& opts) {
  std::size_t covered = 0;
  for (const LedgerCsvRow& row : ledger) {
    if (row.covered) ++covered;
  }
  int restarts = 0;
  for (const IterationRecord& row : iters) {
    if (row.restart) ++restarts;
  }
  os << "iterations        : " << iters.size() << " (" << restarts
     << " restarts)\n"
     << "covered branches  : " << covered << " / " << ledger.size() << "\n";
  os << journal_header;
  os << "\n";
  print_timeline(os, iters, opts.max_milestones);
  os << "\n";
  print_near_misses(os, ledger, opts.top_misses);
  os << "\n";
  print_rank_skew(os, ledger);
  os << "\n";
  print_solver_breakdown(os, iters, journal, have_journal);
  print_matchings(os, iters, ledger, journal);
  print_stall_history(os, journal);
}

}  // namespace

std::vector<LedgerCsvRow> read_ledger_csv(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in.is_open()) return {};
  return parse_ledger_csv(in);
}

bool explain_session(const std::filesystem::path& dir, std::ostream& os,
                     const ExplainOptions& opts) {
  const std::vector<LedgerCsvRow> ledger = read_ledger_csv(dir / "ledger.csv");
  const IterationHistory iters = read_iterations(dir / "iterations.csv");
  if (ledger.empty() && iters.empty()) {
    os << "explain: no ledger.csv or iterations.csv in " << dir.string()
       << " (run a campaign with --log-dir first)\n";
    return false;
  }
  std::size_t malformed = 0;
  const std::filesystem::path journal_file = dir / "journal.jsonl";
  const bool have_journal = std::filesystem::exists(journal_file);
  const std::vector<obs::ParsedEvent> journal =
      have_journal ? obs::read_journal(journal_file, &malformed)
                   : std::vector<obs::ParsedEvent>{};

  os << "session           : " << dir.string() << "\n";
  std::string journal_header;
  if (have_journal) {
    std::ostringstream jh;
    jh << "journal events    : " << journal.size();
    if (malformed > 0) jh << " (+" << malformed << " torn/malformed)";
    jh << "\n";
    journal_header = jh.str();
  }
  render_report(os, ledger, iters, journal, have_journal, journal_header,
                opts);
  return true;
}

std::string explain_live(const CoverageLedger& ledger_state,
                         const rt::BranchTable& table,
                         const IterationHistory& iterations,
                         const std::vector<std::string>& journal_lines,
                         const ExplainOptions& opts) {
  // Render the live ledger to CSV and re-parse it through the offline
  // reader: one source of truth for both report paths.
  std::stringstream csv;
  ledger_state.write_csv(csv, table);
  const std::vector<LedgerCsvRow> ledger = parse_ledger_csv(csv);
  std::vector<obs::ParsedEvent> journal;
  journal.reserve(journal_lines.size());
  for (const std::string& line : journal_lines) {
    if (auto ev = obs::parse_journal_line(line)) {
      journal.push_back(std::move(*ev));
    }
  }
  const bool have_journal = !journal_lines.empty();
  std::ostringstream os;
  os << "session           : (live campaign)\n";
  std::string journal_header;
  if (have_journal) {
    std::ostringstream jh;
    jh << "journal events    : " << journal.size() << " (in-memory tail)\n";
    journal_header = jh.str();
  }
  render_report(os, ledger, iterations, journal, have_journal,
                journal_header, opts);
  return os.str();
}

}  // namespace compi
