#include "compi/search_strategy.h"

#include <algorithm>
#include <deque>
#include <istream>
#include <limits>
#include <ostream>
#include <queue>
#include <string>

#include "compi/checkpoint.h"
#include "obs/metrics.h"

namespace compi {
namespace {

/// Consumes one token and checks it equals `tag` (state-blob parsing).
bool expect_tag(std::istream& is, const char* tag) {
  std::string tok;
  return static_cast<bool>(is >> tok) && tok == tag;
}

/// The branch a flip at `depth` steers toward (the untaken arm).
sym::BranchId flip_target(const sym::Path& path, std::size_t depth) {
  return sym::branch_id(path[depth].site, !path[depth].taken);
}

/// Restores a checkpointed path (its text holds the whole path).
bool read_shared_path(std::istream& is, std::shared_ptr<const sym::Path>& out,
                      std::size_t num_vars) {
  sym::Path path;
  if (!ckpt::read_path(is, path, num_vars)) return false;
  out = std::make_shared<const sym::Path>(std::move(path));
  return true;
}

/// Checkpoints a path a strategy may not have observed yet (as empty).
void write_shared_path(std::ostream& os,
                       const std::shared_ptr<const sym::Path>& path) {
  ckpt::write_path(os, path ? *path : sym::Path{});
}

// Global mirrors of the per-strategy stats (metrics.prom aggregates across
// strategy swaps — the two-phase switch replaces the strategy object).
void note_candidate_issued() {
  static obs::Counter& c = obs::registry().counter(
      "compi_strategy_candidates_total",
      "Constraint-negation candidates issued by search strategies");
  c.inc();
}

void note_prediction_failure() {
  static obs::Counter& c = obs::registry().counter(
      "compi_strategy_prediction_failures_total",
      "Divergence prediction failures (path did not flip as predicted)");
  c.inc();
}

// ---------------------------------------------------------------------------
// (Bounded) depth-first search — CREST's BoundedDFS, COMPI's default.
//
// An explicit stack of frames replaces CREST's re-execution recursion: a
// frame is the (shared) path of one execution plus the range [lo, idx] of
// depths whose negation is still pending.  Children (deeper flips) are
// pushed on top, so exploration is depth-first; a child's `lo` starts just
// past the flip depth so the parent's prefix is not re-explored.
// ---------------------------------------------------------------------------
class BoundedDfsStrategy final : public SearchStrategy {
 public:
  explicit BoundedDfsStrategy(std::size_t bound) : bound_(bound) {}

  void observe(std::shared_ptr<const sym::Path> path,
               std::optional<std::size_t> flipped_depth) override {
    if (!flipped_depth) {
      // Initial or restart execution: root the search tree here.
      stack_.clear();
      push_frame(std::move(path), 0);
      return;
    }
    // The frame that issued the candidate is still on top.
    if (!stack_.empty() &&
        !stack_.back().path->diverges_as_predicted(*path, *flipped_depth)) {
      // Prediction failure (CREST logs and skips the subtree).
      ++stats_.prediction_failures;
      note_prediction_failure();
      return;
    }
    push_frame(std::move(path), *flipped_depth + 1);
  }

  std::optional<Candidate> next() override {
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (f.idx < static_cast<std::ptrdiff_t>(f.lo)) {
        stack_.pop_back();
        continue;
      }
      const std::size_t depth = static_cast<std::size_t>(f.idx--);
      ++stats_.candidates_issued;
      note_candidate_issued();
      return Candidate{f.path, depth, flip_target(*f.path, depth)};
    }
    return std::nullopt;
  }

  [[nodiscard]] const char* name() const override {
    return bound_ == static_cast<std::size_t>(-1) ? "DFS" : "BoundedDFS";
  }

  void save_state(std::ostream& os) const override {
    SearchStrategy::save_state(os);
    os << "frames " << stack_.size() << '\n';
    for (const Frame& f : stack_) {
      os << f.lo << ' ' << f.idx << ' ';
      ckpt::write_path(os, *f.path);
    }
  }

  bool load_state(std::istream& is, std::size_t num_vars) override {
    if (!SearchStrategy::load_state(is)) return false;
    std::size_t n = 0;
    if (!expect_tag(is, "frames") || !(is >> n)) return false;
    stack_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      Frame f;
      // next() flips entry idx of the path: it must exist.
      if (!(is >> f.lo >> f.idx) ||
          !read_shared_path(is, f.path, num_vars) ||
          f.idx >= static_cast<std::ptrdiff_t>(f.path->size())) {
        return false;
      }
      stack_.push_back(std::move(f));
    }
    return true;
  }

 private:
  struct Frame {
    std::shared_ptr<const sym::Path> path;
    std::size_t lo = 0;
    std::ptrdiff_t idx = -1;
  };

  void push_frame(std::shared_ptr<const sym::Path> path, std::size_t lo) {
    const std::size_t limit = std::min(path->size(), bound_);
    if (limit == 0 || lo >= limit) return;
    stack_.push_back(
        {std::move(path), lo, static_cast<std::ptrdiff_t>(limit) - 1});
  }

  std::size_t bound_;
  std::vector<Frame> stack_;
};

// ---------------------------------------------------------------------------
// Random searches: negate one randomly drawn branch of the last path, and
// give up (=> driver restart) after too many UNSAT picks.  The two CREST
// variants differ only in the draw:
//   * RandomBranch  — a uniformly random depth;
//   * UniformRandom — walk the path from the start, flipping a fair coin at
//                     every constraint; the first head is negated (CREST's
//                     uniform random path sampling).
// ---------------------------------------------------------------------------
using DepthDraw = std::size_t (*)(std::mt19937_64& rng, std::size_t size);

std::size_t draw_uniform_depth(std::mt19937_64& rng, std::size_t size) {
  std::uniform_int_distribution<std::size_t> dist(0, size - 1);
  return dist(rng);
}

std::size_t draw_first_head(std::mt19937_64& rng, std::size_t size) {
  std::bernoulli_distribution coin(0.5);
  for (std::size_t i = 0; i < size; ++i) {
    if (coin(rng)) return i;
  }
  return size - 1;
}

class RandomDepthStrategy final : public SearchStrategy {
 public:
  RandomDepthStrategy(std::uint64_t seed, const char* name, DepthDraw draw)
      : rng_(seed), name_(name), draw_(draw) {}

  void observe(std::shared_ptr<const sym::Path> path,
               std::optional<std::size_t>) override {
    path_ = std::move(path);
    attempts_ = 0;
  }

  std::optional<Candidate> next() override {
    if (!path_ || path_->empty() || attempts_ > path_->size() * 2) {
      return std::nullopt;
    }
    ++attempts_;
    const std::size_t depth = draw_(rng_, path_->size());
    ++stats_.candidates_issued;
    note_candidate_issued();
    return Candidate{path_, depth, flip_target(*path_, depth)};
  }

  void accepted(const Candidate&) override { attempts_ = 0; }

  [[nodiscard]] const char* name() const override { return name_; }

  void save_state(std::ostream& os) const override {
    SearchStrategy::save_state(os);
    os << "rng " << rng_ << '\n';
    os << "attempts " << attempts_ << '\n';
    os << "path ";
    write_shared_path(os, path_);
  }

  bool load_state(std::istream& is, std::size_t num_vars) override {
    if (!SearchStrategy::load_state(is)) return false;
    if (!expect_tag(is, "rng") || !(is >> rng_)) return false;
    if (!expect_tag(is, "attempts") || !(is >> attempts_)) return false;
    return expect_tag(is, "path") && read_shared_path(is, path_, num_vars);
  }

 private:
  std::mt19937_64 rng_;
  const char* name_;
  DepthDraw draw_;
  std::shared_ptr<const sym::Path> path_;  // null until the first observe
  std::size_t attempts_ = 0;
};

// ---------------------------------------------------------------------------
// CFG-directed search: score every candidate flip by the static CFG
// distance from its site to the nearest site with an uncovered branch, and
// negate the best-scoring one (ties broken randomly).
// ---------------------------------------------------------------------------
class CfgStrategy final : public SearchStrategy {
 public:
  CfgStrategy(std::uint64_t seed, const rt::BranchTable& table,
              const CoverageTracker& coverage)
      : rng_(seed), table_(&table), coverage_(&coverage) {}

  void observe(std::shared_ptr<const sym::Path> path,
               std::optional<std::size_t>) override {
    path_ = std::move(path);
    tried_.assign(path_->size(), 0);
    attempts_ = 0;
  }

  std::optional<Candidate> next() override {
    if (!path_ || path_->empty() || attempts_ > path_->size()) {
      return std::nullopt;
    }
    ++attempts_;

    const sym::Path& path = *path_;
    std::size_t best_depth = path.size();
    std::size_t best_score = std::numeric_limits<std::size_t>::max();
    std::size_t ties = 0;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (tried_[i]) continue;
      const sym::PathEntry& e = path[i];
      // Flipping entry i lands on branch (site, !taken).
      std::size_t score;
      if (!coverage_->branch_covered(sym::branch_id(e.site, !e.taken))) {
        score = 0;
      } else {
        score = 1 + distance_to_uncovered(e.site);
      }
      if (score < best_score) {
        best_score = score;
        best_depth = i;
        ties = 1;
      } else if (score == best_score) {
        // Reservoir-sample among ties for random tie-breaking.
        std::uniform_int_distribution<std::size_t> dist(0, ties);
        if (dist(rng_) == 0) best_depth = i;
        ++ties;
      }
    }
    if (best_depth >= path.size()) return std::nullopt;
    tried_[best_depth] = 1;
    ++stats_.candidates_issued;
    note_candidate_issued();
    return Candidate{path_, best_depth, flip_target(path, best_depth)};
  }

  void accepted(const Candidate&) override { attempts_ = 0; }

  [[nodiscard]] const char* name() const override { return "CFG"; }

  void save_state(std::ostream& os) const override {
    SearchStrategy::save_state(os);
    os << "rng " << rng_ << '\n';
    os << "attempts " << attempts_ << '\n';
    os << "tried " << tried_.size();
    for (std::uint8_t t : tried_) os << ' ' << static_cast<int>(t);
    os << '\n';
    os << "path ";
    write_shared_path(os, path_);
  }

  bool load_state(std::istream& is, std::size_t num_vars) override {
    if (!SearchStrategy::load_state(is)) return false;
    if (!expect_tag(is, "rng") || !(is >> rng_)) return false;
    if (!expect_tag(is, "attempts") || !(is >> attempts_)) return false;
    std::size_t n = 0;
    if (!expect_tag(is, "tried") || !(is >> n)) return false;
    // One flag per path entry: read one by one, so a corrupt count cannot
    // size an allocation, and checked against the path below.
    tried_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      int bit = 0;
      if (!(is >> bit)) return false;
      tried_.push_back(static_cast<std::uint8_t>(bit));
    }
    return expect_tag(is, "path") && read_shared_path(is, path_, num_vars) &&
           tried_.size() == path_->size();
  }

 private:
  /// BFS over the site graph from `from` to the nearest site with an
  /// uncovered branch; a large penalty when none is reachable.
  std::size_t distance_to_uncovered(sym::SiteId from) const {
    std::vector<std::uint8_t> seen(table_->num_sites(), 0);
    std::queue<std::pair<sym::SiteId, std::size_t>> work;
    work.push({from, 0});
    seen[from] = 1;
    while (!work.empty()) {
      const auto [site, dist] = work.front();
      work.pop();
      if (!coverage_->branch_covered(sym::branch_id(site, false)) ||
          !coverage_->branch_covered(sym::branch_id(site, true))) {
        return dist;
      }
      for (sym::SiteId succ : table_->successors(site)) {
        if (!seen[succ]) {
          seen[succ] = 1;
          work.push({succ, dist + 1});
        }
      }
    }
    return table_->num_sites();  // nothing uncovered reachable
  }

  std::mt19937_64 rng_;
  const rt::BranchTable* table_;
  const CoverageTracker* coverage_;
  std::shared_ptr<const sym::Path> path_;  // null until the first observe
  std::vector<std::uint8_t> tried_;
  std::size_t attempts_ = 0;
};

// ---------------------------------------------------------------------------
// Generational search (extension; Godefroid's SAGE): every execution is a
// "generation" — ALL of its constraint flips beyond the inherited bound
// are queued as candidates, and generations whose runs uncovered new
// branches are expanded first.  Trades DFS's systematic order for breadth;
// included as the natural next step the paper's search framework invites.
// A queued flip is a view (the run's shared path plus a depth), so a
// generation costs O(path) to queue, not O(path²).
// ---------------------------------------------------------------------------
class GenerationalStrategy final : public SearchStrategy {
 public:
  explicit GenerationalStrategy(const CoverageTracker* coverage)
      : coverage_(coverage) {}

  void observe(std::shared_ptr<const sym::Path> path,
               std::optional<std::size_t> flipped_depth) override {
    // Score by coverage novelty: how much the campaign total grew since
    // the last observation (this run's contribution).
    const std::size_t covered_now =
        coverage_ != nullptr ? coverage_->covered_branches() : 0;
    const std::size_t gain = covered_now - last_covered_;
    last_covered_ = covered_now;

    const std::size_t lo = flipped_depth ? *flipped_depth + 1 : 0;
    for (std::size_t d = lo; d < path->size(); ++d) {
      queue_.push_back(
          Entry{gain, next_tiebreak_++, path, d, flip_target(*path, d)});
      std::push_heap(queue_.begin(), queue_.end());
    }
  }

  std::optional<Candidate> next() override {
    if (queue_.empty()) return std::nullopt;
    std::pop_heap(queue_.begin(), queue_.end());
    Entry top = std::move(queue_.back());
    queue_.pop_back();
    ++stats_.candidates_issued;
    note_candidate_issued();
    return Candidate{std::move(top.path), top.depth, top.target};
  }

  [[nodiscard]] const char* name() const override { return "Generational"; }

  void save_state(std::ostream& os) const override {
    SearchStrategy::save_state(os);
    os << "gen " << last_covered_ << ' ' << next_tiebreak_ << '\n';
    os << "entries " << queue_.size() << '\n';
    // Each entry as its constraint set: the prefix, then the negation.
    for (const Entry& e : queue_) {
      os << e.score << ' ' << e.tiebreak << ' ' << e.depth << ' '
         << e.target << ' ' << e.depth + 1 << '\n';
      for (std::size_t i = 0; i < e.depth; ++i) {
        ckpt::write_predicate(os, (*e.path)[i].constraint);
        os << '\n';
      }
      ckpt::write_predicate(os, (*e.path)[e.depth].constraint.negated());
      os << '\n';
    }
  }

  bool load_state(std::istream& is, std::size_t num_vars) override {
    if (!SearchStrategy::load_state(is)) return false;
    if (!expect_tag(is, "gen") || !(is >> last_covered_ >> next_tiebreak_)) {
      return false;
    }
    std::size_t n = 0;
    if (!expect_tag(is, "entries") || !(is >> n)) return false;
    queue_.clear();
    queue_.reserve(n);
    // A restored entry gets a path of its own holding just the prefix and
    // the un-negated entry: solving needs no sites, and the target is
    // saved.
    for (std::size_t i = 0; i < n; ++i) {
      Entry e;
      std::size_t npreds = 0;
      if (!(is >> e.score >> e.tiebreak >> e.depth >> e.target >> npreds) ||
          npreds != e.depth + 1) {
        return false;
      }
      sym::Path path;
      for (std::size_t k = 0; k < npreds; ++k) {
        solver::Predicate p;
        if (!ckpt::read_predicate(is, p, num_vars)) return false;
        path.append(0, false, k == e.depth ? p.negated() : std::move(p));
      }
      e.path = std::make_shared<const sym::Path>(std::move(path));
      queue_.push_back(std::move(e));
    }
    std::make_heap(queue_.begin(), queue_.end());
    return true;
  }

 private:
  struct Entry {
    std::size_t score = 0;      // coverage gain of the producing run
    std::uint64_t tiebreak = 0; // FIFO within a score class
    std::shared_ptr<const sym::Path> path;
    std::size_t depth = 0;
    sym::BranchId target = -1;  // untaken arm the flip steers toward
    bool operator<(const Entry& o) const {
      if (score != o.score) return score < o.score;  // max-heap on score
      return tiebreak > o.tiebreak;                  // FIFO otherwise
    }
  };
  const CoverageTracker* coverage_;
  /// Max-heap maintained with std::push_heap/pop_heap (an explicit vector
  /// rather than std::priority_queue so checkpoints can walk the entries).
  std::vector<Entry> queue_;
  std::size_t last_covered_ = 0;
  std::uint64_t next_tiebreak_ = 0;
};

}  // namespace

void SearchStrategy::save_state(std::ostream& os) const {
  os << "stats " << stats_.candidates_issued << ' '
     << stats_.prediction_failures << '\n';
}

bool SearchStrategy::load_state(std::istream& is,
                                std::size_t /*num_vars*/) {
  return expect_tag(is, "stats") &&
         static_cast<bool>(is >> stats_.candidates_issued >>
                           stats_.prediction_failures);
}

std::unique_ptr<SearchStrategy> make_strategy(const StrategyConfig& config) {
  switch (config.kind) {
    case SearchKind::kDfs:
      return std::make_unique<BoundedDfsStrategy>(
          static_cast<std::size_t>(-1));
    case SearchKind::kBoundedDfs:
      return std::make_unique<BoundedDfsStrategy>(config.bound);
    case SearchKind::kRandomBranch:
      return std::make_unique<RandomDepthStrategy>(
          config.seed, "RandomBranch", draw_uniform_depth);
    case SearchKind::kUniformRandom:
      return std::make_unique<RandomDepthStrategy>(
          config.seed, "UniformRandom", draw_first_head);
    case SearchKind::kCfg:
      return std::make_unique<CfgStrategy>(config.seed, *config.table,
                                           *config.coverage);
    case SearchKind::kGenerational:
      return std::make_unique<GenerationalStrategy>(config.coverage);
  }
  return nullptr;
}

}  // namespace compi
