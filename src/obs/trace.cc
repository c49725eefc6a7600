#include "obs/trace.h"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <utility>

namespace compi::obs {

const char* to_string(Cat cat) {
  switch (cat) {
    case Cat::kDriver: return "driver";
    case Cat::kSolver: return "solver";
    case Cat::kExecute: return "execute";
    case Cat::kLaunch: return "launch";
    case Cat::kStrategy: return "strategy";
    case Cat::kCheckpoint: return "checkpoint";
    case Cat::kChaosRetry: return "chaos-retry";
    case Cat::kMpi: return "mpi";
    case Cat::kCollective: return "collective";
    case Cat::kChaos: return "chaos";
    case Cat::kSandbox: return "sandbox";
    case Cat::kMatch: return "match";
    case Cat::kCoord: return "coord";
  }
  return "unknown";
}

Tracer& tracer() {
  static Tracer* g = new Tracer();  // leaked: hooks may fire at exit
  return *g;
}

void Tracer::configure(std::size_t buffer_kb) {
  const std::size_t events =
      std::max<std::size_t>(1, buffer_kb * 1024 / sizeof(TraceEvent));
  ring_.assign(events, TraceEvent{});
  next_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  epoch_wall_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
}

void Tracer::set_enabled(bool on) {
#ifdef COMPI_OBS_DISABLED
  (void)on;
#else
  if (on && ring_.empty()) configure(256);
  enabled_.store(on, std::memory_order_relaxed);
#endif
}

void Tracer::record(const TraceEvent& event) {
#ifdef COMPI_OBS_DISABLED
  (void)event;
#else
  if (ring_.empty()) return;
  const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
  ring_[i % ring_.size()] = event;
#endif
}

std::int64_t Tracer::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::size_t Tracer::size() const {
  return std::min<std::uint64_t>(next_.load(std::memory_order_relaxed),
                                 ring_.size());
}

std::size_t Tracer::dropped() const {
  const std::uint64_t n = next_.load(std::memory_order_relaxed);
  return n > ring_.size() ? n - ring_.size() : 0;
}

namespace {

/// Minimal JSON string escaping; event names are literals we control, but
/// the exporter must never emit an invalid file.
void write_escaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static const char* hex = "0123456789abcdef";
      os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\":";
  write_escaped(os, e.name != nullptr ? e.name : "");
  os << ",\"cat\":";
  write_escaped(os, to_string(e.cat));
  os << ",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts_us
     << ",\"pid\":1,\"tid\":" << e.tid;
  if (e.ph == 'X') os << ",\"dur\":" << e.dur_us;
  if (e.ph == 'i') os << ",\"s\":\"t\"";
  if (e.arg_name != nullptr) {
    os << ",\"args\":{";
    write_escaped(os, e.arg_name);
    os << ':' << e.arg << '}';
  }
  os << '}';
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const auto& writer) {
    if (!first) os << ",\n";
    first = false;
    writer();
  };

  // Events in record order: the window [n - size, n) of the ring.
  const std::uint64_t n = next_.load(std::memory_order_relaxed);
  const std::size_t held = size();
  std::set<std::int32_t> tracks;
  for (std::size_t k = 0; k < held; ++k) {
    const TraceEvent& e = ring_[(n - held + k) % ring_.size()];
    if (e.name == nullptr) continue;  // torn slot mid-write: skip
    tracks.insert(e.tid);
    emit([&] { write_event(os, e); });
  }

  // Track naming metadata: tid 0 is the driver, tid r+1 is rank r.  Sort
  // keys make Perfetto keep the driver on top and ranks in order.
  emit([&] {
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\"compi\"}}";
  });
  for (const std::int32_t tid : tracks) {
    emit([&] {
      const std::string label =
          tid == 0 ? "driver" : "rank " + std::to_string(tid - 1);
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":";
      write_escaped(os, label.c_str());
      os << "}}";
    });
    emit([&] {
      os << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << tid << ",\"args\":{\"sort_index\":" << tid << "}}";
    });
  }
  os << "],\"otherData\":{\"dropped_events\":" << dropped()
     << ",\"epoch_wall_us\":" << epoch_wall_us_ << "}}\n";
}

#ifndef COMPI_OBS_DISABLED

namespace {
thread_local int g_thread_track = 0;
thread_local int* g_track_slot = nullptr;  // a fiber's slot, when bound

int& track_slot() {
  return g_track_slot != nullptr ? *g_track_slot : g_thread_track;
}
}  // namespace

void set_thread_track(int tid) { track_slot() = tid; }
int thread_track() { return track_slot(); }
int* bind_track_slot(int* slot) { return std::exchange(g_track_slot, slot); }

void ObsSpan::begin(Cat cat, const char* name) {
  Tracer& t = tracer();
  event_.name = name;
  event_.ts_us = t.now_us();
  event_.tid = thread_track();
  event_.cat = cat;
  event_.ph = 'X';
  armed_ = true;
}

void ObsSpan::end() {
  Tracer& t = tracer();
  event_.dur_us = t.now_us() - event_.ts_us;
  // A span that straddled a set_enabled(false) still records: the ring is
  // already sized and one late event beats a dangling half-span.
  t.record(event_);
}

#endif  // COMPI_OBS_DISABLED

}  // namespace compi::obs
