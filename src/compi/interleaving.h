// The wildcard-matching interleaving frontier (--explore-matchings).
//
// A match-scheduled run returns its wildcard decision trace: for every
// ANY_SOURCE receive, which sender was matched and which senders were
// feasible at that moment.  Each decision with >1 feasible senders forks
// alternatives — replayable tests whose match plan pins the decisions
// BEFORE the fork point to their observed choices and forces the forked
// decision to the alternative sender, leaving the suffix free for the
// scheduler's deterministic default.  That is the persistent-set shape of
// dynamic partial-order reduction: one representative per matching prefix.
//
// The frontier deduplicates by decision-vector hash (the sleep set): a
// prefix reachable from two different parent runs is enqueued once.  The
// cap (--max-interleavings) bounds the combinatorial blow-up; capped
// alternatives are counted, never silently dropped.
//
// An interleaving replays its parent run's inputs and test shape.  It is a
// frontier item like a negated constraint — it consumes a campaign
// iteration, lands in iterations.csv/journal/ledger with its id — but it
// does not drive the symbolic search: the strategy neither observes its
// path nor solves from it.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "minimpi/types.h"
#include "solver/solver.h"

namespace compi {

/// One not-yet-run reordered matching: a pinned decision prefix plus the
/// inputs and test shape of the run it forked from.
struct PendingInterleaving {
  std::int64_t id = 0;
  minimpi::MatchPlan plan;
  solver::Assignment inputs;
  int nprocs = 1;
  int focus = 0;
};

/// Pending interleavings plus the sleep set of decision-prefix hashes
/// already enqueued.  Each campaign worker owns one: its queue and id
/// space persist, while its sleep set and `enqueued` count are its view of
/// the campaign's (driver.cc).  Ids step by `id_stride`, so N workers
/// starting at 1..N never hand out the same id.
struct InterleavingFrontier {
  std::deque<PendingInterleaving> queue;
  std::unordered_set<std::uint64_t> seen;
  std::int64_t next_id = 1;
  std::int64_t id_stride = 1;
  std::size_t enqueued = 0;
  std::size_t pruned = 0;  // dropped by the sleep-set dedup
  std::size_t capped = 0;  // dropped by --max-interleavings
};

/// FNV-1a over the (rank, seq, src) triples: the identity of a prescribed
/// decision vector, independent of the run that proposed it.
[[nodiscard]] inline std::uint64_t plan_hash(const minimpi::MatchPlan& plan) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (i * 8)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const minimpi::MatchDecision& d : plan) {
    mix(d.rank);
    mix(d.seq);
    mix(d.src);
  }
  return h;
}

/// Forks every alternative sender of every multi-feasible decision in
/// `trace` into the frontier.  Returns the number actually enqueued (after
/// sleep-set pruning and the cap).
inline std::size_t enqueue_alternatives(
    InterleavingFrontier& frontier,
    const std::vector<minimpi::MatchRecord>& trace,
    const solver::Assignment& inputs, int nprocs, int focus,
    int max_interleavings) {
  std::size_t added = 0;
  minimpi::MatchPlan prefix;
  prefix.reserve(trace.size());
  for (const minimpi::MatchRecord& rec : trace) {
    for (const int alt : rec.feasible) {
      if (alt == rec.chosen_src) continue;
      if (max_interleavings > 0 &&
          frontier.enqueued >=
              static_cast<std::size_t>(max_interleavings)) {
        ++frontier.capped;
        continue;
      }
      minimpi::MatchPlan plan = prefix;
      plan.push_back({rec.rank, rec.seq, alt});
      if (!frontier.seen.insert(plan_hash(plan)).second) {
        ++frontier.pruned;
        continue;
      }
      PendingInterleaving p;
      p.id = frontier.next_id;
      frontier.next_id += frontier.id_stride;
      p.plan = std::move(plan);
      p.inputs = inputs;
      p.nprocs = nprocs;
      p.focus = focus;
      frontier.queue.push_back(std::move(p));
      ++frontier.enqueued;
      ++added;
    }
    prefix.push_back({rec.rank, rec.seq, rec.chosen_src});
  }
  return added;
}

}  // namespace compi
