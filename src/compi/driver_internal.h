// Helpers shared by the campaign engine (driver.cc), the coordinator and
// the shard link, and the engine's epoch planner.  Internal to the driver —
// not part of the compi:: public surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compi/history.h"
#include "compi/options.h"

namespace compi::detail {

/// splitmix64-style seed derivation: decorrelates per-iteration RNG streams
/// (and per-worker strategy seeds) from the single campaign seed.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed,
                                            std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Two failures are the same bug when their messages differ only in
/// concrete quantities (indices, sizes vary with the triggering inputs).
[[nodiscard]] inline std::string bug_signature(const std::string& message) {
  std::string out;
  out.reserve(message.size());
  for (char c : message) {
    if (c < '0' || c > '9') out.push_back(c);
  }
  return out;
}

/// Ordinals each worker runs per epoch (L).  Longer slices keep workers
/// busy through uneven iteration costs; shorter ones show each worker the
/// others' finds sooner.  Chosen from the sweeps in EXPERIMENTS.md.
inline constexpr int kSliceOrdinals = 256;

/// One epoch: the ordinals [begin, end()) and the worker each is dealt to.
struct Epoch {
  int begin = 0;
  std::vector<int> worker;  // per ordinal
  /// The work source granted nothing: the campaign stops at `begin`.
  bool source_stopped = false;

  [[nodiscard]] int end() const {
    return begin + static_cast<int>(worker.size());
  }
};

/// Cuts and deals the campaign's epochs (DESIGN.md §4.4.1).  Apart from
/// the work source's grant, an epoch is a pure function of its start, the
/// options below and the last N·kSliceOrdinals rows, so a resumed campaign
/// plans exactly like an uninterrupted one.  Runs on the apply thread.
class EpochPlanner {
 public:
  /// Reads --workers, --iterations, --checkpoint-interval (only when
  /// `logged`: unlogged campaigns write no snapshots to align with),
  /// `halt_after_iterations` and the work source.
  EpochPlanner(const CampaignOptions& options, bool logged);

  /// The epoch starting at `begin`: cut(), then leased from the work
  /// source, which may grant fewer ordinals (none stops the campaign),
  /// then dealt.  Empty once the budget is spent.
  [[nodiscard]] Epoch plan(int begin, const IterationHistory& rows) const;

  /// The end of the epoch starting at `begin`, before the lease:
  /// N·kSliceOrdinals on (one for a lone worker, whom batching only costs
  /// memory), cut at the budget and at the next checkpoint multiple, so
  /// snapshots fall on barriers.
  [[nodiscard]] int cut(int begin) const;

  /// The worker of each of `ordinals` ordinals from `begin`.  A worker's
  /// share is inversely proportional to the mean path length (+1) of its
  /// rows among the last N·kSliceOrdinals, with one pseudo-row at the
  /// window's mean so a worker without rows gets the average; smooth
  /// weighted round-robin interleaves the shares, ties going to the next
  /// worker in turn from `begin`.
  [[nodiscard]] std::vector<int> deal(int begin, int ordinals,
                                      const IterationHistory& rows) const;

  /// True when the campaign, started (or resumed) at `start`, halts at the
  /// boundary `end`: the first at or past `halt_after_iterations`, so a halt
  /// never cuts an epoch of its own and a resume continues the
  /// uninterrupted plan.
  [[nodiscard]] bool halts_at(int start, int end) const;

 private:
  const CampaignOptions& options_;
  int workers_;
  int interval_;  // 0: epochs are not cut at snapshots
};

}  // namespace compi::detail
