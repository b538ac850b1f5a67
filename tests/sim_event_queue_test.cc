#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace fluidfaas::sim {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.PeekTime(), kTimeInfinity);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.Schedule(5, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.PeekTime(), kTimeInfinity);
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  const EventId id = q.Schedule(5, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId a = q.Schedule(1, [] {});
  bool b_ran = false;
  q.Schedule(2, [&] { b_ran = true; });
  EXPECT_EQ(q.Pop().id, a);
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.Pop().fn();
  EXPECT_TRUE(b_ran);
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1, [&] { order.push_back(1); });
  const EventId id = q.Schedule(2, [&] { order.push_back(2); });
  q.Schedule(3, [&] { order.push_back(3); });
  q.Cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, PeekSkipsCancelledHead) {
  EventQueue q;
  const EventId id = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  q.Cancel(id);
  EXPECT_EQ(q.PeekTime(), 2);
}

TEST(EventQueueTest, RejectsNegativeTime) {
  EventQueue q;
  EXPECT_THROW(q.Schedule(-1, [] {}), FfsError);
}

TEST(EventQueueTest, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.Pop(), FfsError);
}

TEST(EventQueueTest, StressRandomOrderIsSorted) {
  EventQueue q;
  Rng rng(1234);
  for (int i = 0; i < 5000; ++i) {
    q.Schedule(rng.UniformInt(0, 1000), [] {});
  }
  SimTime prev = -1;
  while (!q.empty()) {
    auto fired = q.Pop();
    ASSERT_GE(fired.time, prev);
    prev = fired.time;
  }
}

TEST(EventQueueTest, StressWithRandomCancellation) {
  // Pops interleave with cancels of pending, fired and already-cancelled
  // ids. A sorted model of the queued (time, id) pairs predicts every pop,
  // every Cancel result and the size after each step.
  EventQueue q;
  Rng rng(99);
  std::set<std::pair<SimTime, EventId>> model;
  std::vector<std::pair<SimTime, EventId>> issued;
  int executed = 0;
  int popped = 0;
  int cancelled = 0;
  for (int step = 0; step < 6000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.45) {
      const SimTime t = rng.UniformInt(0, 500);
      issued.emplace_back(t, q.Schedule(t, [&executed] { ++executed; }));
      model.insert(issued.back());
    } else if (op < 0.7) {
      if (model.empty()) continue;
      auto fired = q.Pop();
      ASSERT_EQ(std::make_pair(fired.time, fired.id), *model.begin());
      model.erase(model.begin());
      fired.fn();
      ++popped;
    } else if (!issued.empty()) {
      const auto& e = issued[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(issued.size()) - 1))];
      const bool queued = model.erase(e) == 1;
      EXPECT_EQ(q.Cancel(e.second), queued);
      cancelled += queued ? 1 : 0;
    }
    ASSERT_EQ(q.size(), model.size());
  }
  while (!q.empty()) {
    q.Pop().fn();
    ++popped;
  }
  EXPECT_EQ(executed, popped);
  EXPECT_EQ(static_cast<std::size_t>(popped + cancelled), issued.size());
}

}  // namespace
}  // namespace fluidfaas::sim
