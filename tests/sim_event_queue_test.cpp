#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace spr {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> queue;
  queue.push(3.0, 3);
  queue.push(1.0, 1);
  queue.push(2.0, 2);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop().event, 1);
  EXPECT_EQ(queue.pop().event, 2);
  EXPECT_EQ(queue.pop().event, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TiesBreakFifoByInsertionOrder) {
  EventQueue<int> queue;
  for (int i = 0; i < 100; ++i) queue.push(1.0, i);
  for (int i = 0; i < 100; ++i) {
    auto timed = queue.pop();
    EXPECT_EQ(timed.event, i);
    EXPECT_EQ(timed.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(EventQueue, InterleavedPushPopKeepsTotalOrder) {
  EventQueue<std::string> queue;
  queue.push(5.0, "e");
  queue.push(1.0, "a");
  EXPECT_EQ(queue.pop().event, "a");
  queue.push(2.0, "b");
  queue.push(5.0, "d");  // same instant as "e" but pushed later
  EXPECT_EQ(queue.pop().event, "b");
  EXPECT_EQ(queue.top().event, "e");
  EXPECT_EQ(queue.pop().event, "e");
  EXPECT_EQ(queue.pop().event, "d");
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance_to(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  clock.advance_to(1.0);  // never backwards
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

}  // namespace
}  // namespace spr
