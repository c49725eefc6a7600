// The event journal: JSON emission, buffered commit, crash-tolerant
// read-back, and the resume truncation contract (events at or past the
// checkpoint boundary are dropped, torn tails are skipped).
#include "obs/journal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace compi::obs {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_journal_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  std::string out;
  JsonWriter::append_escaped(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(JsonWriter, BuildsAFlatObjectWithTypedFields) {
  std::string out;
  JsonWriter w(out);
  w.field("n", std::int64_t{42});
  w.field("s", std::string_view{"hi"});
  w.field_bool("b", true);
  w.begin_object("inputs");
  w.field("x", std::int64_t{7});
  w.end_object();
  w.finish();
  EXPECT_EQ(out, "{\"n\":42,\"s\":\"hi\",\"b\":true,\"inputs\":{\"x\":7}}\n");
}

TEST(Journal, DisabledJournalMakesEventsNoOps) {
  Journal journal;  // never opened
  EXPECT_FALSE(journal.enabled());
  JournalEvent(journal, "iteration", 0).num("nprocs", 4).str("outcome", "ok");
  journal.flush();
  EXPECT_EQ(journal.events_written(), 0u);
}

TEST(Journal, EventsRoundTripThroughReadJournal) {
  TempDir tmp;
  const fs::path file = tmp.path / "journal.jsonl";
  Journal journal;
  ASSERT_TRUE(journal.open(file));
  {
    JournalEvent ev(journal, "iteration", 3);
    ev.num("nprocs", 8)
        .real("exec_seconds", 0.25)
        .str("outcome", "ok")
        .boolean("restart", false)
        .inputs({{"x", 33}, {"y", 77}});
  }
  JournalEvent(journal, "solve", 3).num("target", 12).boolean("sat", true);
  journal.close();
  EXPECT_EQ(journal.events_written(), 2u);

  std::size_t malformed = 0;
  const std::vector<ParsedEvent> events = read_journal(file, &malformed);
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "iteration");
  EXPECT_EQ(events[0].iter(), 3);
  EXPECT_EQ(events[0].num("nprocs"), 8);
  EXPECT_EQ(events[0].real("exec_seconds"), 0.25);
  EXPECT_EQ(events[0].str("outcome"), "ok");
  EXPECT_EQ(events[0].boolean("restart"), false);
  EXPECT_EQ(events[0].num("inputs.x"), 33);
  EXPECT_EQ(events[0].num("inputs.y"), 77);
  EXPECT_EQ(events[1].type, "solve");
  EXPECT_EQ(events[1].boolean("sat"), true);
}

TEST(Journal, ParseRejectsMalformedAndTornLines) {
  EXPECT_FALSE(parse_journal_line("").has_value());
  EXPECT_FALSE(parse_journal_line("not json").has_value());
  EXPECT_FALSE(parse_journal_line("{\"type\":\"x\"").has_value());  // torn
  EXPECT_FALSE(parse_journal_line("{\"iter\":1}").has_value());  // no type
  EXPECT_FALSE(
      parse_journal_line("{\"type\":\"x\"}").has_value());  // no iter
  const auto ok = parse_journal_line("{\"type\":\"x\",\"iter\":5}");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->iter(), 5);
}

TEST(Journal, ReadSkipsTornTrailingLine) {
  TempDir tmp;
  const fs::path file = tmp.path / "journal.jsonl";
  {
    std::ofstream out(file);
    out << "{\"type\":\"iteration\",\"iter\":0}\n"
        << "{\"type\":\"iteration\",\"it";  // writer died mid-line
  }
  std::size_t malformed = 0;
  const std::vector<ParsedEvent> events = read_journal(file, &malformed);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(malformed, 1u);
}

TEST(Journal, BufferedEventsReachDiskOnFlush) {
  TempDir tmp;
  const fs::path file = tmp.path / "journal.jsonl";
  Journal journal;
  ASSERT_TRUE(journal.open(file));
  JournalEvent(journal, "iteration", 0).num("covered_branches", 5);
  journal.flush();
  // Visible to a reader while the journal is still open.
  EXPECT_EQ(read_journal(file).size(), 1u);
  journal.close();
}

TEST(JournalTap, TapOnlyJournalRetainsLinesWithoutAFile) {
  Journal journal;  // no file: --serve without --journal
  EXPECT_FALSE(journal.tap_enabled());
  journal.enable_tap(8);
  EXPECT_TRUE(journal.tap_enabled());
  EXPECT_TRUE(journal.enabled());  // emit sites turn on for the tap alone

  for (int i = 0; i < 3; ++i) {
    JournalEvent(journal, "iteration", i).num("covered", 10 + i);
  }
  std::vector<std::string> lines;
  const std::uint64_t head = journal.tap_since(0, lines);
  EXPECT_EQ(head, 3u);
  ASSERT_EQ(lines.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto ev = parse_journal_line(lines[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->type, "iteration");
    EXPECT_EQ(ev->iter(), i);
    EXPECT_EQ(ev->num("covered"), 10 + i);
  }

  // Resuming from the returned cursor yields nothing new.
  std::vector<std::string> more;
  EXPECT_EQ(journal.tap_since(head, more), head);
  EXPECT_TRUE(more.empty());
}

TEST(JournalTap, RingEvictsOldestAndStaleCursorsSkipAhead) {
  Journal journal;
  journal.enable_tap(2);
  for (int i = 0; i < 5; ++i) {
    JournalEvent(journal, "solve", i);
  }
  // A cursor older than the retained window misses events but still gets
  // everything that survives.
  std::vector<std::string> lines;
  const std::uint64_t head = journal.tap_since(0, lines);
  EXPECT_EQ(head, 5u);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(parse_journal_line(lines[0])->iter(), 3);
  EXPECT_EQ(parse_journal_line(lines[1])->iter(), 4);
}

TEST(JournalTap, TapAndFileSeeTheSameEvents) {
  TempDir dir;
  Journal journal;
  ASSERT_TRUE(journal.open(dir.path / "journal.jsonl"));
  journal.enable_tap(16);
  JournalEvent(journal, "iteration", 0).num("covered", 1);
  JournalEvent(journal, "iteration", 1).num("covered", 2);
  journal.close();

  std::vector<std::string> tapped;
  journal.tap_since(0, tapped);
  ASSERT_EQ(tapped.size(), 2u);  // tap survives close()
  const auto from_disk = read_journal(dir.path / "journal.jsonl");
  ASSERT_EQ(from_disk.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto ev = parse_journal_line(tapped[i]);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->iter(), from_disk[i].iter());
    EXPECT_EQ(ev->num("covered"), from_disk[i].num("covered"));
  }
}

TEST(ParseJsonObject, ParsesBareObjectsWithoutTheJournalEnvelope) {
  const auto obj =
      parse_json_object("{\"a\":1,\"nested\":{\"b\":2},\"s\":\"x\"}");
  ASSERT_TRUE(obj.has_value());
  EXPECT_TRUE(obj->type.empty());
  EXPECT_EQ(obj->num("a"), 1);
  EXPECT_EQ(obj->num("nested.b"), 2);
  EXPECT_EQ(obj->str("s"), "x");
  EXPECT_FALSE(parse_json_object("{\"a\":1").has_value());
}

}  // namespace
}  // namespace compi::obs
