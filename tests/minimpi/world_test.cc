// World / Mailbox unit tests (below the launcher): matching through
// World::recv_message, ordering, abort semantics.
#include <gtest/gtest.h>

#include "minimpi/fiber.h"
#include "minimpi/world.h"

namespace compi::minimpi {
namespace {

Message msg(int src, std::int64_t comm, int tag, std::int64_t payload) {
  Message m;
  m.src = src;
  m.comm_uid = comm;
  m.tag = tag;
  m.payload = to_bytes(std::span<const std::int64_t>(&payload, 1));
  return m;
}

std::int64_t payload_of(const Message& m) {
  std::int64_t v = 0;
  from_bytes<std::int64_t>(m.payload, std::span<std::int64_t>(&v, 1));
  return v;
}

TEST(Mailbox, FifoPerMatchingKey) {
  World world(1, std::chrono::seconds(2));
  Mailbox& mb = world.mailbox(0);
  mb.push(msg(0, 0, 1, 10));
  mb.push(msg(0, 0, 1, 20));
  EXPECT_EQ(payload_of(world.recv_message(0, 0, 0, 0, 1)), 10);
  EXPECT_EQ(payload_of(world.recv_message(0, 0, 0, 0, 1)), 20);
}

TEST(Mailbox, TagMismatchIsSkippedNotDropped) {
  World world(1, std::chrono::seconds(2));
  Mailbox& mb = world.mailbox(0);
  mb.push(msg(0, 0, 7, 70));
  mb.push(msg(0, 0, 8, 80));
  EXPECT_EQ(payload_of(world.recv_message(0, 0, 0, 0, 8)), 80);
  EXPECT_EQ(payload_of(world.recv_message(0, 0, 0, 0, 7)), 70);
}

TEST(Mailbox, CommUidSegregatesTagSpaces) {
  World world(1, std::chrono::seconds(2));
  Mailbox& mb = world.mailbox(0);
  mb.push(msg(0, /*comm=*/1, 5, 100));
  mb.push(msg(0, /*comm=*/2, 5, 200));
  EXPECT_EQ(payload_of(world.recv_message(0, 0, 0, 2, 5)), 200);
  EXPECT_EQ(payload_of(world.recv_message(0, 0, 0, 1, 5)), 100);
}

TEST(Mailbox, WildcardsMatchAnything) {
  World world(1, std::chrono::seconds(2));
  Mailbox& mb = world.mailbox(0);
  mb.push(msg(3, 0, 9, 42));
  const Message m =
      world.recv_message(0, kAnySource, kAnySource, 0, kAnyTag);
  EXPECT_EQ(m.src, 3);
  EXPECT_EQ(m.tag, 9);
  EXPECT_EQ(payload_of(m), 42);
}

TEST(Mailbox, AbortWakesBlockedReceiver) {
  // Rank 0 parks in a receive nobody will satisfy; rank 1 aborts the job,
  // which must wake rank 0 and unwind it.
  World world(2, std::chrono::seconds(30));
  bool unwound = false;
  const FiberScheduler::Body body = [&](int rank) {
    if (rank == 1) {
      world.abort();
      return;
    }
    try {
      (void)world.recv_message(0, 1, 1, 0, 1);
    } catch (const JobAborted&) {
      unwound = true;
    }
  };
  FiberScheduler fibers(2, body);
  world.run(fibers);
  EXPECT_TRUE(unwound);
}

TEST(World, DeadlineTriggersJobAborted) {
  World world(1, std::chrono::milliseconds(100));
  EXPECT_THROW((void)world.recv_message(0, 0, 0, 0, 1), JobAborted);
}

TEST(World, CheckAliveThrowsOnlyWhenDead) {
  World world(1, std::chrono::seconds(10));
  EXPECT_NO_THROW(world.check_alive());
  world.abort();
  EXPECT_THROW(world.check_alive(), JobAborted);
}

TEST(World, CommUidsAreUnique) {
  World world(1, std::chrono::seconds(2));
  const auto a = world.next_comm_uid();
  const auto b = world.next_comm_uid();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace compi::minimpi
