// Queue-discipline semantics (DESIGN.md §9): dequeue order per discipline,
// deterministic seq tie-breaks, Remove, Snapshot-vs-Drain agreement, the
// fair queue's stickiness / blocking / drop rules, and the factory.
#include "qos/queue_discipline.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace fluidfaas::qos {
namespace {

QueueItem Item(int rid, int fn, SimTime deadline, SimTime priority,
               SimDuration est = 1000) {
  QueueItem item;
  item.rid = RequestId(rid);
  item.fn = FunctionId(fn);
  item.deadline = deadline;
  item.priority = priority;
  item.service_estimate = est;
  return item;
}

std::vector<int> DrainAll(QueueDiscipline& q) {
  std::vector<int> order;
  q.Drain([&order](const QueueItem& item) {
    order.push_back(static_cast<int>(item.rid.value));
    return DrainVerdict::kDispatch;
  });
  return order;
}

std::vector<int> SnapshotIds(const QueueDiscipline& q) {
  std::vector<int> order;
  for (const QueueItem& item : q.Snapshot()) {
    order.push_back(static_cast<int>(item.rid.value));
  }
  return order;
}

TEST(KeyedQueueFifoTest, OrdersByPriorityTheLegacyAdjustedDeadline) {
  KeyedQueue q = KeyedQueue::Fifo();
  q.Enqueue(Item(0, 0, 900, 500));
  q.Enqueue(Item(1, 1, 950, 100));
  q.Enqueue(Item(2, 2, 100, 300));
  EXPECT_EQ(DrainAll(q), (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_STREQ(q.name(), "fifo");
  EXPECT_EQ(q.stage_order(), StageOrder::kArrival);
}

TEST(KeyedQueueFifoTest, EqualPrioritiesKeepInsertionOrder) {
  KeyedQueue q = KeyedQueue::Fifo();
  for (int i = 0; i < 5; ++i) q.Enqueue(Item(i, i, 1000, 42));
  EXPECT_EQ(DrainAll(q), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(KeyedQueueFifoTest, KeepLeavesItemsQueuedInOrder) {
  KeyedQueue q = KeyedQueue::Fifo();
  q.Enqueue(Item(0, 0, 900, 100));
  q.Enqueue(Item(1, 1, 900, 200));
  q.Enqueue(Item(2, 2, 900, 300));
  // Refuse the middle one; it must survive, still ahead of nothing.
  q.Drain([](const QueueItem& item) {
    return item.rid.value == 1 ? DrainVerdict::kKeep
                               : DrainVerdict::kDispatch;
  });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(DrainAll(q), (std::vector<int>{1}));
}

TEST(KeyedQueueEdfTest, OrdersByAbsoluteDeadlineWithSeqTies) {
  KeyedQueue q = KeyedQueue::Edf();
  q.Enqueue(Item(0, 0, 500, 0));
  q.Enqueue(Item(1, 1, 100, 0));
  q.Enqueue(Item(2, 2, 100, 0));  // same deadline as rid 1: arrival order
  q.Enqueue(Item(3, 3, 300, 0));
  EXPECT_EQ(DrainAll(q), (std::vector<int>{1, 2, 3, 0}));
  EXPECT_STREQ(q.name(), "edf");
  EXPECT_EQ(q.stage_order(), StageOrder::kDeadline);
}

TEST(QueueDisciplineTest, RemoveDropsOneItemAndFixesDepth) {
  KeyedQueue q = KeyedQueue::Fifo();
  q.Enqueue(Item(0, 7, 900, 100));
  q.Enqueue(Item(1, 7, 900, 200));
  EXPECT_EQ(q.DepthOf(FunctionId(7)), 2u);
  EXPECT_TRUE(q.Remove(RequestId(0)));
  EXPECT_FALSE(q.Remove(RequestId(0)));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.DepthOf(FunctionId(7)), 1u);
  EXPECT_EQ(DrainAll(q), (std::vector<int>{1}));
}

TEST(QueueDisciplineTest, SnapshotMatchesDrainOrder) {
  FairQueue fair(2);
  KeyedQueue edf = KeyedQueue::Edf();
  KeyedQueue fifo = KeyedQueue::Fifo();
  for (QueueDiscipline* q :
       std::vector<QueueDiscipline*>{&fair, &edf, &fifo}) {
    q->Enqueue(Item(0, 0, 400, 400, 10));
    q->Enqueue(Item(1, 1, 200, 200, 10));
    q->Enqueue(Item(2, 0, 300, 300, 10));
    q->Enqueue(Item(3, 2, 100, 100, 10));
    const auto snap = SnapshotIds(*q);
    EXPECT_EQ(snap, DrainAll(*q)) << q->name();
    EXPECT_EQ(snap.size(), 4u) << q->name();
  }
}

TEST(FairQueueTest, InterleavesFlowsInsteadOfDrainingTheBurst) {
  // Function 0 dumps a burst before function 1's two requests arrive; with
  // equal service estimates and sticky batch 1, fair queueing alternates
  // instead of finishing the whole burst first (which is what FIFO on
  // equal priorities would do).
  FairQueue q(1);
  for (int i = 0; i < 4; ++i) q.Enqueue(Item(i, 0, 1000, 0, 100));
  q.Enqueue(Item(4, 1, 1000, 0, 100));
  q.Enqueue(Item(5, 1, 1000, 0, 100));
  EXPECT_EQ(DrainAll(q), (std::vector<int>{0, 4, 1, 5, 2, 3}));
}

TEST(FairQueueTest, StickyBatchKeepsAFunctionsBacklogTogether) {
  FairQueue q(2);
  for (int i = 0; i < 4; ++i) q.Enqueue(Item(i, 0, 1000, 0, 100));
  q.Enqueue(Item(4, 1, 1000, 0, 100));
  q.Enqueue(Item(5, 1, 1000, 0, 100));
  // Two from flow 0 (sticky), then flow 1 catches up, then the tail.
  EXPECT_EQ(DrainAll(q), (std::vector<int>{0, 1, 4, 5, 2, 3}));
}

TEST(FairQueueTest, CheapFlowsDequeueMoreOften) {
  // Flow 0's items cost 4x flow 1's: virtual time advances 4x faster for
  // flow 0, so flow 1 gets roughly four dequeues per flow-0 dequeue.
  FairQueue q(1);
  for (int i = 0; i < 3; ++i) q.Enqueue(Item(i, 0, 1000, 0, 400));
  for (int i = 3; i < 11; ++i) q.Enqueue(Item(i, 1, 1000, 0, 100));
  const auto order = DrainAll(q);
  // First flow-0 item finishes at F=400; flow 1's first four finish at
  // 100..400. Ties (400) break toward the lower function id.
  EXPECT_EQ(order, (std::vector<int>{3, 4, 5, 0, 6, 7, 8, 9, 1, 10, 2}));
}

TEST(FairQueueTest, TiesBreakByFunctionIdThenSeq) {
  FairQueue q(1);
  q.Enqueue(Item(0, 3, 1000, 0, 100));
  q.Enqueue(Item(1, 1, 1000, 0, 100));
  q.Enqueue(Item(2, 2, 1000, 0, 100));
  // Identical finish tags everywhere: lowest FunctionId wins.
  EXPECT_EQ(DrainAll(q), (std::vector<int>{1, 2, 0}));
}

TEST(FairQueueTest, KeepBlocksTheWholeFlowForThePass) {
  FairQueue q(4);
  q.Enqueue(Item(0, 0, 1000, 0, 100));
  q.Enqueue(Item(1, 0, 1000, 0, 100));
  q.Enqueue(Item(2, 1, 1000, 0, 100));
  std::vector<int> order;
  q.Drain([&order](const QueueItem& item) {
    if (item.fn.value == 0) return DrainVerdict::kKeep;
    order.push_back(static_cast<int>(item.rid.value));
    return DrainVerdict::kDispatch;
  });
  // Flow 0's head was refused: rid 1 must NOT be offered (per-function
  // order is preserved), but flow 1 still drains.
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.DepthOf(FunctionId(0)), 2u);
}

TEST(FairQueueTest, DropDoesNotAdvanceVirtualTime) {
  FairQueue q(1);
  q.Enqueue(Item(0, 0, 1000, 0, 1'000'000));  // huge estimate, will be shed
  q.Enqueue(Item(1, 1, 1000, 0, 100));
  q.Drain([](const QueueItem& item) {
    return item.rid.value == 0 ? DrainVerdict::kDrop
                               : DrainVerdict::kDispatch;
  });
  // After the shed, a fresh flow-0 item competes from the (small) current
  // virtual time, not from behind the dropped item's million-unit finish.
  q.Enqueue(Item(2, 0, 1000, 0, 100));
  q.Enqueue(Item(3, 1, 1000, 0, 100));
  EXPECT_EQ(DrainAll(q), (std::vector<int>{2, 3}));
}

TEST(FairQueueTest, RemoveMidBacklogPreservesFlowOrder) {
  FairQueue q(1);
  q.Enqueue(Item(0, 0, 1000, 0, 100));
  q.Enqueue(Item(1, 0, 1000, 0, 100));
  q.Enqueue(Item(2, 0, 1000, 0, 100));
  EXPECT_TRUE(q.Remove(RequestId(1)));
  EXPECT_FALSE(q.Remove(RequestId(99)));
  EXPECT_EQ(DrainAll(q), (std::vector<int>{0, 2}));
}

TEST(QueueFactoryTest, BuildsEachDisciplineAndRejectsUnknown) {
  QosConfig cfg;
  EXPECT_STREQ(MakeQueueDiscipline(cfg)->name(), "fifo");
  EXPECT_EQ(MakeQueueDiscipline(cfg)->stage_order(), StageOrder::kArrival);
  cfg.queue = "fair";
  EXPECT_STREQ(MakeQueueDiscipline(cfg)->name(), "fair");
  cfg.queue = "edf";
  EXPECT_STREQ(MakeQueueDiscipline(cfg)->name(), "edf");
  EXPECT_EQ(MakeQueueDiscipline(cfg)->stage_order(), StageOrder::kDeadline);
  cfg.queue = "lifo";
  EXPECT_THROW(MakeQueueDiscipline(cfg), FfsError);
}

}  // namespace
}  // namespace fluidfaas::qos
