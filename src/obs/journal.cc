#include "obs/journal.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/artifacts.h"

namespace compi::obs {

namespace {

/// Shortest-round-trip double formatting (the same contract the checkpoint
/// format uses), with the JSON constraint that the text must be a valid
/// JSON number (no "nan"/"inf" — those become 0).
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out.push_back('0');
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) {
    out.push_back('0');
    return;
  }
  out.append(buf, ptr);
}

}  // namespace

void JsonWriter::append_escaped(std::string& out, std::string_view v) {
  out.push_back('"');
  for (char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void JsonWriter::key_prefix(std::string_view key) {
  if (!first_) out_->push_back(',');
  first_ = false;
  append_escaped(*out_, key);
  out_->push_back(':');
}

void JsonWriter::field(std::string_view key, std::int64_t v) {
  key_prefix(key);
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out_->append(buf, ec == std::errc{} ? ptr : buf);
}

void JsonWriter::field(std::string_view key, double v) {
  key_prefix(key);
  append_double(*out_, v);
}

void JsonWriter::field(std::string_view key, std::string_view v) {
  key_prefix(key);
  append_escaped(*out_, v);
}

void JsonWriter::field_bool(std::string_view key, bool v) {
  key_prefix(key);
  *out_ += v ? "true" : "false";
}

void JsonWriter::begin_object(std::string_view key) {
  key_prefix(key);
  out_->push_back('{');
  first_ = true;
}

void JsonWriter::end_object() {
  out_->push_back('}');
  first_ = false;
}

void JsonWriter::finish() {
  out_->push_back('}');
  out_->push_back('\n');
}

// ---- JournalEvent ----

JournalEvent::JournalEvent(Journal& journal, std::string_view type,
                           int iteration, std::vector<std::string>* held) {
  if (!journal.enabled()) return;
  journal_ = &journal;
  held_ = held;
  line_.reserve(160);
  writer_.emplace(line_);
  writer_->field("type", type);
  writer_->field("iter", static_cast<std::int64_t>(iteration));
}

JournalEvent::~JournalEvent() {
  if (journal_ == nullptr) return;
  writer_->finish();
  if (held_ != nullptr) {
    held_->push_back(std::move(line_));
  } else {
    journal_->commit(std::move(line_));
  }
}

JournalEvent& JournalEvent::num(std::string_view key, std::int64_t v) {
  if (journal_ != nullptr) writer_->field(key, v);
  return *this;
}

JournalEvent& JournalEvent::real(std::string_view key, double v) {
  if (journal_ != nullptr) writer_->field(key, v);
  return *this;
}

JournalEvent& JournalEvent::str(std::string_view key, std::string_view v) {
  if (journal_ != nullptr) writer_->field(key, v);
  return *this;
}

JournalEvent& JournalEvent::boolean(std::string_view key, bool v) {
  if (journal_ != nullptr) writer_->field_bool(key, v);
  return *this;
}

JournalEvent& JournalEvent::inputs(
    const std::map<std::string, std::int64_t>& assignment) {
  if (journal_ == nullptr) return *this;
  writer_->begin_object("inputs");
  for (const auto& [name, value] : assignment) {
    writer_->field(name, value);
  }
  writer_->end_object();
  return *this;
}

// ---- Journal ----

bool Journal::open(const std::filesystem::path& file) {
  close();
  out_.open(file, std::ios::app);
  path_ = file;
  events_ = 0;
  if (!out_.is_open()) {
    note_artifact_write_error("journal", file.string());
    return false;
  }
  std::error_code ec;
  file_bytes_ = std::filesystem::file_size(file, ec);
  if (ec) file_bytes_ = 0;
  return true;
}

void Journal::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  drain_locked();
  out_.flush();
  // A short write (disk full) latches the stream's failbit; report it and
  // clear the state so later events still get their chance — the journal
  // is a paper trail, not the campaign's source of truth.  The file's
  // length is then whatever reached it.
  if (!out_.good()) {
    note_artifact_write_error("journal", path_.string());
    out_.clear();
    std::error_code ec;
    file_bytes_ = std::filesystem::file_size(path_, ec);
    if (ec) file_bytes_ = 0;
  }
}

void Journal::drain_locked() {
  if (buffer_.empty()) return;
  out_ << buffer_;
  file_bytes_ += buffer_.size();
  buffer_.clear();
}

void Journal::close() {
  flush();
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  out_.close();
  buffer_.clear();
}

void Journal::commit_held(std::vector<std::string>& held) {
  for (std::string& line : held) commit(std::move(line));
  held.clear();
}

void Journal::commit(std::string&& line) {
  std::lock_guard<std::mutex> lock(mu_);
  ++events_;
  if (tap_capacity_ > 0) {
    // Retain the line without its trailing newline: tap consumers (the
    // SSE stream) frame lines themselves.
    std::string_view body(line);
    while (!body.empty() && body.back() == '\n') body.remove_suffix(1);
    tap_.emplace_back(body);
    ++tap_head_;
    while (tap_.size() > tap_capacity_) tap_.pop_front();
  }
  // Only accumulate the disk buffer when a file is draining it: a
  // tap-only journal (--serve without --journal) must not grow without
  // bound.
  if (!out_.is_open()) return;
  buffer_ += line;
  if (buffer_.size() >= kFlushBytes) drain_locked();
}

void Journal::enable_tap(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity == 0) capacity = 1;
  tap_capacity_ = capacity;
  while (tap_.size() > tap_capacity_) tap_.pop_front();
  tap_on_.store(true, std::memory_order_relaxed);
}

std::uint64_t Journal::tap_since(std::uint64_t cursor,
                                 std::vector<std::string>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t oldest = tap_head_ - tap_.size();
  if (cursor < oldest) cursor = oldest;
  for (std::uint64_t seq = cursor; seq < tap_head_; ++seq) {
    out.push_back(tap_[static_cast<std::size_t>(seq - oldest)]);
  }
  return tap_head_;
}

// ---- read-back ----

namespace {

/// Minimal parser for the journal's own output dialect: one flat object
/// per line, string/number/bool values, at most one level of nesting (the
/// "inputs" object, flattened into dotted keys).  Not a general JSON
/// parser — but strict enough that foreign garbage fails cleanly.
class LineParser {
 public:
  explicit LineParser(std::string_view s) : s_(s) {}

  bool parse(ParsedEvent& out) {
    skip_ws();
    if (!consume('{')) return false;
    if (!members(out, "")) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool members(ParsedEvent& out, const std::string& prefix) {
    skip_ws();
    if (consume('}')) return true;  // empty object
    for (;;) {
      skip_ws();
      std::string key;
      if (!string_literal(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (peek() == '{') {
        if (!prefix.empty()) return false;  // one nesting level only
        ++pos_;
        if (!members(out, key + ".")) return false;
      } else {
        std::string value;
        if (!scalar(value)) return false;
        out.fields[prefix + key] = std::move(value);
      }
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }

  /// Reads a JSON string literal, unescaping into `out`.
  bool string_literal(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      c = s_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // The writer only emits \u00xx for control bytes; decode those
          // and reject anything needing real UTF-16 handling.
          if (v > 0xff) return false;
          out.push_back(static_cast<char>(v));
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  /// Reads a scalar value (string, number, true/false/null) as raw text.
  /// Strings are stored unescaped WITHOUT the quotes, with a '"' sentinel
  /// prefix so typed accessors can tell "123" (string) from 123 (number).
  bool scalar(std::string& out) {
    if (peek() == '"') {
      std::string s;
      if (!string_literal(s)) return false;
      out = '"' + s;
      return true;
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ' ') {
      ++pos_;
    }
    out = std::string(s_.substr(start, pos_ - start));
    return !out.empty();
  }

  void skip_ws() {
    // '\n' included so whole documents (JsonWriter::finish ends with a
    // newline — /fleet, shard.json) parse as well as journal lines.
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r' ||
            s_[pos_] == '\n')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : 0; }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<std::int64_t> ParsedEvent::num(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end() || it->second.empty() || it->second[0] == '"') {
    return std::nullopt;
  }
  std::int64_t v = 0;
  const std::string& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> ParsedEvent::real(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end() || it->second.empty() || it->second[0] == '"') {
    return std::nullopt;
  }
  double v = 0.0;
  const std::string& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::string> ParsedEvent::str(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end() || it->second.empty() || it->second[0] != '"') {
    return std::nullopt;
  }
  return it->second.substr(1);
}

std::optional<bool> ParsedEvent::boolean(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  if (it->second == "true") return true;
  if (it->second == "false") return false;
  return std::nullopt;
}

int ParsedEvent::iter() const {
  return static_cast<int>(num("iter").value_or(-1));
}

std::optional<ParsedEvent> parse_json_object(std::string_view text) {
  ParsedEvent event;
  LineParser parser(text);
  if (!parser.parse(event)) return std::nullopt;
  return event;
}

std::optional<ParsedEvent> parse_journal_line(std::string_view line) {
  ParsedEvent event;
  LineParser parser(line);
  if (!parser.parse(event)) return std::nullopt;
  const std::optional<std::string> type = event.str("type");
  if (!type || event.fields.find("iter") == event.fields.end()) {
    return std::nullopt;
  }
  event.type = *type;
  return event;
}

std::vector<ParsedEvent> read_journal(const std::filesystem::path& file,
                                      std::size_t* malformed) {
  std::vector<ParsedEvent> events;
  std::size_t bad = 0;
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (std::optional<ParsedEvent> event = parse_journal_line(line)) {
      events.push_back(std::move(*event));
    } else {
      ++bad;
    }
  }
  if (malformed != nullptr) *malformed = bad;
  return events;
}

}  // namespace compi::obs
