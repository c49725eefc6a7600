#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Metrics::write_json(std::ostream& os) const {
  os << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", entries_[i].value);
    os << (i ? ", " : "") << '"' << entries_[i].name << "\": {\"value\": "
       << num << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  os << '}';
}

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One launch's envelope over its rank spans.
struct Launch {
  int worker = 0;
  int nprocs = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  int iteration = -1;
};

std::map<std::int64_t, Launch> launches_of(const std::vector<RankSpan>& spans) {
  std::map<std::int64_t, Launch> out;
  for (const RankSpan& s : spans) {
    auto [it, fresh] = out.try_emplace(s.launch);
    Launch& l = it->second;
    if (fresh) {
      l = {s.worker, s.nprocs, s.start_us, s.end_us, s.iteration};
    } else {
      l.start_us = std::min(l.start_us, s.start_us);
      l.end_us = std::max(l.end_us, s.end_us);
    }
  }
  return out;
}

}  // namespace

SpanRecorder::SpanRecorder(int max_procs)
    : track_stride_(max_procs + 1),
      epoch_ns_(steady_ns()),
      epoch_wall_us_(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count()) {
  spans_.reserve(1 << 16);
}

double SpanRecorder::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) / 1e3;
}

compi::TargetInfo SpanRecorder::wrap(const compi::TargetInfo& target) {
  compi::TargetInfo wrapped = target;
  wrapped.program = [this, inner = target.program](
                        compi::rt::RuntimeContext& ctx,
                        compi::minimpi::Comm& world) {
    RankSpan span;
    span.rank = world.raw_rank();
    span.nprocs = world.raw_size();
    // The launcher puts rank r of a worker whose track base is b on track
    // b + r + 1, and the parallel engine spaces bases max_procs + 1 apart.
    span.worker = std::max(
        0, (compi::obs::thread_track() - span.rank - 1) / track_stride_);
    {
      const std::lock_guard lock(mu_);
      if (cursors_.size() <= static_cast<std::size_t>(span.worker)) {
        cursors_.resize(span.worker + 1);
      }
      WorkerCursor& c = cursors_[span.worker];
      if (c.launch < 0 || c.entered >= c.nprocs) {
        c = {next_launch_++, 0, span.nprocs};
      }
      ++c.entered;
      span.launch = c.launch;
    }
    // Closes the span on every exit, including the simulated faults and
    // job aborts the launcher catches above us.
    struct Close {
      SpanRecorder& rec;
      RankSpan& span;
      ~Close() {
        span.end_us = rec.now_us();
        const std::lock_guard lock(rec.mu_);
        rec.spans_.push_back(span);
      }
    };
    span.start_us = now_us();
    const Close close{*this, span};
    inner(ctx, world);
  };
  return wrapped;
}

SpanAnalysis SpanRecorder::analyse(const compi::CampaignResult& result) {
  const std::lock_guard lock(mu_);
  SpanAnalysis a;
  for (const RankSpan& s : spans_) a.rank_exec_us.push_back(s.end_us - s.start_us);

  std::map<std::int64_t, Launch> launches = launches_of(spans_);
  a.launches = launches.size();
  std::map<int, std::vector<std::int64_t>> by_worker;  // launch ids in order
  for (const auto& [id, l] : launches) by_worker[l.worker].push_back(id);
  for (const auto& [w, ids] : by_worker) {
    for (std::size_t k = 1; k < ids.size(); ++k) {
      a.between_launch_us.push_back(launches[ids[k]].start_us -
                                    launches[ids[k - 1]].end_us);
    }
  }

  // Each iteration launched 1 + retries jobs, plus one confirmation re-run
  // when it found a new bug; the last non-confirmation launch is the one
  // whose wall time the IterationRecord carries.
  std::set<int> new_bug_at;
  for (const compi::BugRecord& b : result.bugs) new_bug_at.insert(b.first_iteration);
  std::map<int, std::vector<const compi::IterationRecord*>> iters_by_worker;
  for (const compi::IterationRecord& r : result.iterations) {
    iters_by_worker[r.worker].push_back(&r);
  }
  std::map<std::int64_t, int> iteration_of;
  std::vector<double> gaps;
  bool mapped = !launches.empty();
  for (auto& [w, recs] : iters_by_worker) {
    std::sort(recs.begin(), recs.end(), [](auto* x, auto* y) {
      return x->iteration < y->iteration;
    });
    const std::vector<std::int64_t>& ids = by_worker[w];
    std::size_t next = 0;
    for (const compi::IterationRecord* r : recs) {
      const std::size_t n = static_cast<std::size_t>(r->retries) + 1 +
                            (new_bug_at.count(r->iteration) ? 1 : 0);
      if (next + n > ids.size()) {
        mapped = false;
        break;
      }
      for (std::size_t k = 0; k < n; ++k) iteration_of[ids[next + k]] = r->iteration;
      const Launch& exec = launches[ids[next + r->retries]];
      gaps.push_back(r->exec_seconds * 1e6 - (exec.end_us - exec.start_us));
      next += n;
    }
    if (next != ids.size()) mapped = false;
  }
  a.iterations_mapped = mapped;
  if (mapped) {
    a.launch_gap_us = std::move(gaps);
    for (RankSpan& s : spans_) s.iteration = iteration_of[s.launch];
  }
  return a;
}

void SpanRecorder::write_chrome_json(std::ostream& os) const {
  std::vector<RankSpan> spans;
  {
    const std::lock_guard lock(mu_);
    spans = spans_;
  }
  const std::map<std::int64_t, Launch> launches = launches_of(spans);
  std::set<int> tracks;
  bool first = true;
  auto event = [&](const char* name, const char* cat, int tid, double start,
                   double end, const std::string& args) {
    os << (first ? "" : ",\n") << "{\"name\":\"" << name << "\",\"cat\":\""
       << cat << "\",\"ph\":\"X\",\"ts\":" << std::llround(start)
       << ",\"dur\":" << std::max<long long>(0, std::llround(end - start))
       << ",\"pid\":1,\"tid\":" << tid << ",\"args\":{" << args << "}}";
    first = false;
    tracks.insert(tid);
  };
  os << "{\"traceEvents\":[\n";
  for (const RankSpan& s : spans) {
    event("rank_body", "targets", s.worker * track_stride_ + s.rank + 1,
          s.start_us, s.end_us,
          "\"rank\":" + std::to_string(s.rank) + ",\"launch\":" +
              std::to_string(s.launch) + ",\"iteration\":" +
              std::to_string(s.iteration));
  }
  std::map<int, const Launch*> prev_of_worker;
  for (const auto& [id, l] : launches) {
    const int tid = l.worker * track_stride_;
    event("launch", "minimpi", tid, l.start_us, l.end_us,
          "\"launch\":" + std::to_string(id) + ",\"iteration\":" +
              std::to_string(l.iteration) + ",\"nprocs\":" +
              std::to_string(l.nprocs));
    if (const Launch* prev = prev_of_worker[l.worker]) {
      event("between_launches", "compi", tid, prev->end_us, l.start_us,
            "\"launch\":" + std::to_string(id));
    }
    prev_of_worker[l.worker] = &l;
  }
  for (const int tid : tracks) {
    const int worker = tid / track_stride_;
    const int rank = tid % track_stride_ - 1;
    const std::string name =
        "worker " + std::to_string(worker) +
        (rank < 0 ? std::string(" driver") : " rank " + std::to_string(rank));
    os << (first ? "" : ",\n")
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << name << "\"}}";
    first = false;
  }
  os << "],\"otherData\":{\"dropped_events\":0,\"epoch_wall_us\":"
     << epoch_wall_us_ << "}}\n";
}

}  // namespace perfbench
