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

// Pops interleave with cancels of pending, fired and already-cancelled
// ids, and with events whose id is reserved at one step and scheduled at a
// later one. A sorted model of the queued (time, id) pairs predicts every
// pop, every Cancel result and the size after each step. `next_time()`
// draws the time of each event.
template <typename NextTime>
void StressAgainstSortedModel(Rng& rng, NextTime next_time) {
  EventQueue q;
  std::set<std::pair<SimTime, EventId>> model;
  std::vector<std::pair<SimTime, EventId>> issued;    // scheduled
  std::vector<std::pair<SimTime, EventId>> reserved;  // not scheduled yet
  int executed = 0;
  int popped = 0;
  int cancelled = 0;
  const auto schedule_reserved = [&](std::size_t i) {
    const auto e = reserved[i];
    reserved[i] = reserved.back();
    reserved.pop_back();
    q.ScheduleAs(e.first, e.second, [&executed] { ++executed; });
    issued.push_back(e);
    model.insert(e);
  };
  for (int step = 0; step < 6000; ++step) {
    const double op = rng.NextDouble();
    if (op < 0.3) {
      const SimTime t = next_time();
      issued.emplace_back(t, q.Schedule(t, [&executed] { ++executed; }));
      model.insert(issued.back());
    } else if (op < 0.45) {
      if (reserved.empty() || rng.NextDouble() < 0.5) {
        const SimTime t = next_time();
        reserved.emplace_back(t, q.Reserve());
      } else {
        schedule_reserved(static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(reserved.size()) - 1)));
      }
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
  while (!reserved.empty()) schedule_reserved(0);
  while (!q.empty()) {
    q.Pop().fn();
    ++popped;
  }
  EXPECT_EQ(executed, popped);
  EXPECT_EQ(static_cast<std::size_t>(popped + cancelled), issued.size());
}

TEST(EventQueueTest, StressWithRandomCancellation) {
  Rng rng(99);
  StressAgainstSortedModel(rng, [&rng] { return rng.UniformInt(0, 500); });
}

TEST(EventQueueTest, StressWithSortedRunsAndCancellation) {
  // Runs of nondecreasing times, as a replayed trace schedules them, mixed
  // with random times that are mostly earlier than the run and sometimes
  // later. The runs feed the sorted tail, the earlier times the heap, and a
  // later time moves the tail's last entry past the run, so the run goes on
  // in the heap until it catches up.
  Rng rng(4321);
  SimTime run_time = 0;
  int run_left = 0;
  StressAgainstSortedModel(rng, [&]() -> SimTime {
    if (run_left == 0) {
      if (rng.NextDouble() < 0.5) return rng.UniformInt(0, run_time + 100);
      run_left = static_cast<int>(rng.UniformInt(5, 60));
    }
    --run_left;
    run_time += rng.UniformInt(0, 3);
    return run_time;
  });
}

TEST(EventQueueTest, TiesAcrossTailAndHeapPopInIdOrder) {
  EventQueue q;
  const auto at = [&q](SimTime t) { return q.Schedule(t, [] {}); };
  const EventId a = at(20);     // tail
  const EventId late = at(40);  // tail
  const EventId b = at(20);     // heap: earlier than the tail's last entry
  const EventId c = at(20);     // heap
  ASSERT_TRUE(q.Cancel(late));
  const EventId d = at(20);     // tail: no earlier than its last entry, a
  std::vector<EventId> order;
  while (!q.empty()) order.push_back(q.Pop().id);
  EXPECT_EQ(order, (std::vector<EventId>{a, b, c, d}));
}

TEST(EventQueueTest, EarlierThanTailPopsBeforeLaterTailEntries) {
  EventQueue q;
  for (SimTime t : {10, 20, 30}) q.Schedule(t, [] {});  // tail
  q.Schedule(15, [] {});  // heap: earlier than the tail's last entry
  std::vector<SimTime> order;
  while (!q.empty()) {
    const SimTime next = q.PeekTime();
    order.push_back(q.Pop().time);
    EXPECT_EQ(order.back(), next);
  }
  EXPECT_EQ(order, (std::vector<SimTime>{10, 15, 20, 30}));
}

TEST(EventQueueTest, ReservedIdPopsInItsPlace) {
  EventQueue q;
  const auto at = [&q](SimTime t) { return q.Schedule(t, [] {}); };
  const auto as = [&q](SimTime t, EventId id) { q.ScheduleAs(t, id, [] {}); };
  const EventId r1 = q.Reserve();
  const EventId r2 = q.Reserve();
  const EventId a = at(20);  // tail
  const EventId b = at(10);  // heap
  const EventId c = at(30);  // tail
  as(20, r1);  // ties a in the tail with an older id: before a
  as(10, r2);  // ties b in the heap with an older id: before b
  const EventId r3 = q.Reserve();
  const EventId r4 = q.Reserve();
  const EventId d = at(40);  // tail
  as(40, r3);  // ties the tail's last entry d with an older id: before d
  as(50, r4);  // after every queued key: appends to the tail
  EXPECT_EQ(q.size(), 8u);
  std::vector<EventId> order;
  while (!q.empty()) order.push_back(q.Pop().id);
  EXPECT_EQ(order, (std::vector<EventId>{r2, b, r1, a, c, r3, d, r4}));
}

TEST(EventQueueTest, ScheduleAsRefusesAnUnissuedId) {
  EventQueue q;
  EXPECT_THROW(q.ScheduleAs(5, 0, [] {}), FfsError);
  EXPECT_THROW(q.ScheduleAs(5, 1, [] {}), FfsError);
  const EventId r = q.Reserve();
  EXPECT_THROW(q.ScheduleAs(5, r + 1, [] {}), FfsError);
  EXPECT_THROW(q.ScheduleAs(-1, r, [] {}), FfsError);
  EXPECT_TRUE(q.empty());
  q.ScheduleAs(5, r, [] {});
  EXPECT_EQ(q.Pop().id, r);
}

TEST(EventQueueTest, ReserveIssuesTheIdScheduleWouldHave) {
  EventQueue q;
  const EventId a = q.Schedule(1, [] {});
  const EventId r = q.Reserve();
  const EventId b = q.Schedule(1, [] {});
  EXPECT_EQ(r, a + 1);
  EXPECT_EQ(b, r + 1);
  EXPECT_FALSE(q.Cancel(r));  // reserved, not scheduled
}

}  // namespace
}  // namespace fluidfaas::sim
