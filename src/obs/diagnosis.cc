#include "obs/diagnosis.h"

#include <algorithm>
#include <sstream>

#include "obs/journal.h"

namespace compi::obs {

namespace {

/// Campaign-relative time of the last coverage increase; the first sample's
/// time when coverage never grew (a campaign that found nothing has been
/// stalled since it started).
double last_progress_seconds(const std::vector<CoveragePoint>& timeline) {
  double last = timeline.empty() ? 0.0 : timeline.front().seconds;
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    if (timeline[i].covered > timeline[i - 1].covered) {
      last = timeline[i].seconds;
    }
  }
  return last;
}

std::string format_seconds(double s) {
  std::ostringstream os;
  os << static_cast<long long>(s) << 's';
  return os.str();
}

}  // namespace

const char* to_string(StallKind kind) {
  switch (kind) {
    case StallKind::kProgressing: return "progressing";
    case StallKind::kCoveragePlateau: return "coverage-plateau";
    case StallKind::kFrontierStarved: return "frontier-starved";
    case StallKind::kSolverThrash: return "solver-thrash";
    case StallKind::kStragglerShard: return "straggler-shard";
    case StallKind::kLeaseChurn: return "lease-churn";
  }
  return "progressing";
}

std::optional<StallKind> stall_kind_from_string(std::string_view s) {
  for (StallKind k :
       {StallKind::kProgressing, StallKind::kCoveragePlateau,
        StallKind::kFrontierStarved, StallKind::kSolverThrash,
        StallKind::kStragglerShard, StallKind::kLeaseChurn}) {
    if (s == to_string(k)) return k;
  }
  return std::nullopt;
}

Diagnosis diagnose(const DiagnosisInput& in) {
  Diagnosis d;
  if (in.coverage_timeline.empty()) {
    d.detail = "no samples yet";
    return d;
  }
  d.stalled_seconds =
      in.elapsed_seconds - last_progress_seconds(in.coverage_timeline);
  const std::int64_t covered = in.coverage_timeline.back().covered;
  if (d.stalled_seconds < in.plateau_window_seconds) {
    std::ostringstream os;
    os << "progressing: " << covered << " branches, last gain "
       << format_seconds(d.stalled_seconds) << " ago";
    d.detail = os.str();
    return d;
  }

  // ---- the curve is flat: rank the explanations ----
  // Lease churn: work keeps being reclaimed and re-granted, so iterations
  // are re-run instead of finishing.  Only meaningful with join history.
  if (in.shards_joined > 0 && in.leases_reclaimed >= 3 &&
      in.leases_reclaimed >= 2 * in.shards_joined) {
    d.kind = StallKind::kLeaseChurn;
    std::ostringstream os;
    os << "lease-churn: " << in.leases_reclaimed
       << " leases reclaimed across " << in.shards_joined
       << " shard joins; work is bouncing, not finishing";
    d.detail = os.str();
    return d;
  }

  // Straggler: one shard far behind a fleet that is otherwise moving.  A
  // connected-but-silent shard counts the same as a slow one.
  if (in.shards.size() >= 2) {
    const ShardProgress* slowest = nullptr;
    double fastest = 0.0;
    for (const ShardProgress& s : in.shards) {
      fastest = std::max(fastest, s.rate);
      if (slowest == nullptr || s.rate < slowest->rate ||
          (!s.connected && slowest->connected)) {
        slowest = &s;
      }
    }
    if (slowest != nullptr && fastest > 0.0 &&
        (!slowest->connected || slowest->rate < 0.25 * fastest)) {
      d.kind = StallKind::kStragglerShard;
      std::ostringstream os;
      os << "straggler-shard: \"" << slowest->name << "\" at "
         << slowest->rate << " iters/s vs fleet peak " << fastest
         << (slowest->connected ? "" : " (disconnected)");
      d.detail = os.str();
      return d;
    }
  }

  // Frontier starvation: nothing left to negate and no queued
  // interleavings — the search has genuinely run out of work.
  if (in.frontier_depth == 0 && in.interleavings_pending == 0) {
    d.kind = StallKind::kFrontierStarved;
    std::ostringstream os;
    os << "frontier-starved: no negation candidates or pending "
          "interleavings after "
       << format_seconds(d.stalled_seconds) << " without new coverage";
    d.detail = os.str();
    return d;
  }

  // Solver thrash: budget-exhausted outcomes dominate the mix — queries
  // are burning their node budget without reaching a verdict.
  if (in.solver_budget > 0 &&
      in.solver_budget >= in.solver_sat + in.solver_unsat) {
    d.kind = StallKind::kSolverThrash;
    std::ostringstream os;
    os << "solver-thrash: " << in.solver_budget
       << " budget-exhausted solves vs " << in.solver_sat << " SAT / "
       << in.solver_unsat << " UNSAT";
    d.detail = os.str();
    return d;
  }

  d.kind = StallKind::kCoveragePlateau;
  std::ostringstream os;
  os << "coverage-plateau: flat at " << covered << " branches for "
     << format_seconds(d.stalled_seconds) << " with "
     << (in.frontier_depth < 0 ? 0 : in.frontier_depth)
     << " candidates still queued";
  d.detail = os.str();
  return d;
}

Diagnosis DiagnosisEngine::update(DiagnosisInput in, std::int64_t covered,
                                  int iteration) {
  if (!has_samples_) {
    has_samples_ = true;
    first_ = {in.elapsed_seconds, covered};
    last_gain_ = first_;
    work_seen_at_ = in.elapsed_seconds;
  } else if (covered > last_gain_.covered) {
    last_gain_ = {in.elapsed_seconds, covered};
  }
  // Debounce the work inputs.  The driver's frontier empties and refills
  // every few iterations (exhaust → restart → replan), so a raw sample
  // flaps the verdict between frontier-starved and coverage-plateau; a
  // zero only counts once nothing has been queued for the whole window.
  // Unknown (-1) counts as "seen" — no starvation claim without data.
  if (in.frontier_depth != 0 || in.interleavings_pending != 0) {
    work_seen_at_ = in.elapsed_seconds;
    if (in.frontier_depth != 0) last_frontier_ = in.frontier_depth;
    if (in.interleavings_pending != 0) last_pending_ = in.interleavings_pending;
  }
  if (in.elapsed_seconds - work_seen_at_ < in.plateau_window_seconds) {
    if (in.frontier_depth == 0) in.frontier_depth = last_frontier_;
    if (in.interleavings_pending == 0) in.interleavings_pending = last_pending_;
  }
  // The classifier only needs the last-increase time and the current
  // maximum, so hand it the three points that encode exactly those.  An
  // earlier version kept a thinned sample ring instead; thinning a long
  // flat tail kept moving the first retained post-gain sample forward, so
  // stalled_seconds chased elapsed_seconds and a real plateau never
  // crossed the window.
  in.coverage_timeline = {first_, last_gain_,
                          {in.elapsed_seconds, last_gain_.covered}};
  Diagnosis next = diagnose(in);
  const bool transition = !reported_once_ || next.kind != current_.kind;
  current_ = next;
  reported_once_ = true;
  if (transition && journal_ != nullptr) {
    JournalEvent(*journal_, "diagnosis", iteration)
        .str("kind", to_string(current_.kind))
        .str("detail", current_.detail)
        .real("stalled_seconds", current_.stalled_seconds)
        .real("elapsed_seconds", in.elapsed_seconds)
        .num("covered", covered);
  }
  return current_;
}

void DiagnosisEngine::resume(StallKind kind) {
  current_.kind = kind;
  reported_once_ = true;
}

}  // namespace compi::obs
