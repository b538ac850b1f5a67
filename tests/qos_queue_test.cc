// Queue-discipline semantics (DESIGN.md §9): dequeue order per discipline,
// deterministic seq tie-breaks, Remove, Snapshot-vs-Drain agreement, the
// fair queue's stickiness / blocking / drop rules, KeyedQueue's lanes and
// keep-through jumps (against a reference single-map walk), and the
// factory.
#include "qos/queue_discipline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "qos/admission.h"

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

/// rids [begin, end) in ascending order, appended to `out`.
void AppendRange(std::vector<int>& out, int begin, int end) {
  for (int rid = begin; rid < end; ++rid) out.push_back(rid);
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
  FairQueue fair;
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

constexpr int kSticky = FairQueue::kStickyBatch;

TEST(FairQueueTest, InterleavesFlowsInsteadOfDrainingTheBurst) {
  // Function 0 dumps a burst of two sticky batches before function 1's two
  // requests arrive; with equal service estimates, fair queueing serves
  // function 1 after the first batch instead of finishing the whole burst
  // first (which is what FIFO on equal priorities would do).
  FairQueue q;
  for (int i = 0; i < 2 * kSticky; ++i) q.Enqueue(Item(i, 0, 1000, 0, 100));
  q.Enqueue(Item(2 * kSticky, 1, 1000, 0, 100));
  q.Enqueue(Item(2 * kSticky + 1, 1, 1000, 0, 100));
  std::vector<int> expected;
  AppendRange(expected, 0, kSticky);
  AppendRange(expected, 2 * kSticky, 2 * kSticky + 2);
  AppendRange(expected, kSticky, 2 * kSticky);
  EXPECT_EQ(DrainAll(q), expected);
}

TEST(FairQueueTest, StickyBatchKeepsAFunctionsBacklogTogether) {
  // Two equal flows of two batches each: the pick alternates in runs of
  // exactly kStickyBatch (ties go to the lower function id).
  FairQueue q;
  for (int i = 0; i < 2 * kSticky; ++i) q.Enqueue(Item(i, 0, 1000, 0, 100));
  for (int i = 2 * kSticky; i < 4 * kSticky; ++i) {
    q.Enqueue(Item(i, 1, 1000, 0, 100));
  }
  std::vector<int> expected;
  AppendRange(expected, 0, kSticky);
  AppendRange(expected, 2 * kSticky, 3 * kSticky);
  AppendRange(expected, kSticky, 2 * kSticky);
  AppendRange(expected, 3 * kSticky, 4 * kSticky);
  EXPECT_EQ(DrainAll(q), expected);
}

TEST(FairQueueTest, CheapFlowsDequeueMoreOften) {
  // Flow 0's items cost 4x flow 1's, so each flow-0 batch advances its
  // finish tags 4x as far. Flow 1's first batch finishes at F=100..400,
  // ahead of flow 0's head (F=400). After flow 0's first batch its head
  // finishes at F=400·(kSticky+1), so flow 1's remaining three batches
  // (up to F=400·kSticky) all dequeue while flow 0 waits.
  FairQueue q;
  const int cheap = 4 * kSticky;
  for (int i = 0; i < 2 * kSticky; ++i) q.Enqueue(Item(i, 0, 1000, 0, 400));
  for (int i = 0; i < cheap; ++i) {
    q.Enqueue(Item(2 * kSticky + i, 1, 1000, 0, 100));
  }
  std::vector<int> expected;
  AppendRange(expected, 2 * kSticky, 3 * kSticky);
  AppendRange(expected, 0, kSticky);
  AppendRange(expected, 3 * kSticky, 2 * kSticky + cheap);
  AppendRange(expected, kSticky, 2 * kSticky);
  EXPECT_EQ(DrainAll(q), expected);
}

TEST(FairQueueTest, TiesBreakByFunctionIdThenSeq) {
  FairQueue q;
  q.Enqueue(Item(0, 3, 1000, 0, 100));
  q.Enqueue(Item(1, 1, 1000, 0, 100));
  q.Enqueue(Item(2, 2, 1000, 0, 100));
  // Identical finish tags everywhere: lowest FunctionId wins.
  EXPECT_EQ(DrainAll(q), (std::vector<int>{1, 2, 0}));
}

TEST(FairQueueTest, KeepBlocksTheWholeFlowForThePass) {
  FairQueue q;
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
  FairQueue q;
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
  FairQueue q;
  q.Enqueue(Item(0, 0, 1000, 0, 100));
  q.Enqueue(Item(1, 0, 1000, 0, 100));
  q.Enqueue(Item(2, 0, 1000, 0, 100));
  EXPECT_TRUE(q.Remove(RequestId(1)));
  EXPECT_FALSE(q.Remove(RequestId(99)));
  EXPECT_EQ(DrainAll(q), (std::vector<int>{0, 2}));
}

// --- KeyedQueue lanes and keep-through jumps ---------------------------------

/// A fifo item the way the platform builds it: priority = deadline − the
/// service estimate, so each (function, estimate) pair is one lane.
QueueItem Fifo(int rid, int fn, SimTime deadline, SimDuration est) {
  return Item(rid, fn, deadline, deadline - est, est);
}

/// Offers `q` once; answers each item with `answer` and records the rids.
template <typename Answer>
std::vector<int> Offers(QueueDiscipline& q, Answer answer) {
  std::vector<int> offered;
  q.Drain([&](const QueueItem& item) {
    offered.push_back(static_cast<int>(item.rid.value));
    return answer(item);
  });
  return offered;
}

TEST(KeyedQueueLaneTest, BoundedKeepSkipsTheBlockedRunInBothLanes) {
  KeyedQueue q = KeyedQueue::Fifo();
  // Function 0 has a warm lane (estimate 100) and a cold one (300).
  q.Enqueue(Fifo(0, 0, 1000, 300));  // key 700
  q.Enqueue(Fifo(1, 0, 1000, 100));  // key 900
  q.Enqueue(Fifo(2, 0, 1100, 300));  // key 800
  q.Enqueue(Fifo(3, 0, 1200, 100));  // key 1100
  q.Enqueue(Fifo(4, 1, 1050, 100));  // key 950
  q.Enqueue(Fifo(5, 0, 1400, 300));  // key 1100
  const auto offered = Offers(q, [](const QueueItem&) {
    return DrainVerdict::KeepThrough(5000);
  });
  // One head per lane of function 0; function 1 is still offered.
  EXPECT_EQ(offered, (std::vector<int>{0, 1, 4}));
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(SnapshotIds(q), (std::vector<int>{0, 2, 1, 4, 3, 5}));
}

TEST(KeyedQueueLaneTest, BoundStopsAtTheFirstLaterDeadline) {
  KeyedQueue q = KeyedQueue::Edf();
  for (int i = 0; i < 5; ++i) q.Enqueue(Item(i, 0, 100 * (i + 1), 0));
  // A bound of 300 covers rids 0..2 only; rid 3 is offered and answered
  // with a bound that covers the rest.
  const auto offered = Offers(q, [](const QueueItem& item) {
    return DrainVerdict::KeepThrough(item.rid.value == 0 ? 300 : 1000);
  });
  EXPECT_EQ(offered, (std::vector<int>{0, 3}));
}

TEST(KeyedQueueLaneTest, DispatchAndUnboundedKeepReofferLaterSkippedItems) {
  for (const DrainVerdict::Action moved :
       {DrainVerdict::kDispatch, DrainVerdict::kKeep}) {
    KeyedQueue q = KeyedQueue::Edf();
    q.Enqueue(Item(0, 0, 10, 0));
    q.Enqueue(Item(1, 1, 20, 0));
    q.Enqueue(Item(2, 0, 30, 0));
    q.Enqueue(Item(3, 1, 40, 0));
    q.Enqueue(Item(4, 0, 50, 0));
    // Function 0 keeps through everything; rid 1 moves the state, so rid 2
    // (skipped at rid 0, but after rid 1 in the order) is offered again;
    // rid 3 keeps without moving anything, so rid 4 stays skipped.
    const auto offered = Offers(q, [moved](const QueueItem& item) {
      if (item.fn.value == 0) return DrainVerdict::KeepThrough(1000);
      return item.rid.value == 1 ? DrainVerdict(moved)
                                 : DrainVerdict::KeepThrough(1000);
    });
    EXPECT_EQ(offered, (std::vector<int>{0, 1, 2, 3}))
        << static_cast<int>(moved);
  }
}

TEST(KeyedQueueLaneTest, DropKeepsTheSkip) {
  KeyedQueue q = KeyedQueue::Edf();
  q.Enqueue(Item(0, 0, 10, 0));
  q.Enqueue(Item(1, 1, 20, 0));
  q.Enqueue(Item(2, 0, 30, 0));
  q.Enqueue(Item(3, 0, 50, 0));
  const auto offered = Offers(q, [](const QueueItem& item) {
    return item.fn.value == 0 ? DrainVerdict::KeepThrough(1000)
                              : DrainVerdict(DrainVerdict::kDrop);
  });
  EXPECT_EQ(offered, (std::vector<int>{0, 1}));
  EXPECT_EQ(SnapshotIds(q), (std::vector<int>{0, 2, 3}));
}

TEST(KeyedQueueLaneTest, InfeasibleHeadInTheOtherLaneIsStillOfferedAndShed) {
  QosConfig cfg;
  cfg.admission = "shed";
  ShedAdmission shed(cfg);
  const SimTime now = 500;
  // Under edf, function 0's cold items (estimate 300) with deadline 700
  // and 750 can no longer make it; its warm ones (estimate 100) can.
  KeyedQueue q = KeyedQueue::Edf();
  q.Enqueue(Item(0, 0, 700, 0, 100));
  q.Enqueue(Item(1, 0, 700, 0, 300));
  q.Enqueue(Item(2, 0, 750, 0, 300));
  q.Enqueue(Item(3, 0, 800, 0, 300));
  q.Enqueue(Item(4, 0, 700, 0, 100));
  q.Enqueue(Item(5, 0, 800, 0, 300));
  SimTime bar = std::numeric_limits<SimTime>::min();
  std::vector<int> shed_ids;
  const auto offered = Offers(q, [&](const QueueItem& item) {
    if (shed.ReviewAtDispatch(item, now) != sim::RejectCause::kNone) {
      shed_ids.push_back(static_cast<int>(item.rid.value));
      return DrainVerdict(DrainVerdict::kDrop);
    }
    bar = std::max(bar, std::max(item.deadline, now));
    return DrainVerdict::KeepThrough(bar);
  });
  // rid 0's bound (700) covers rids 1 and 2 by deadline, but they sit in
  // the cold lane and are shed; the warm lane jumps over rid 4, and the
  // cold lane over rid 5 once rid 3 raises the bound to 800.
  EXPECT_EQ(offered, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(shed_ids, (std::vector<int>{1, 2}));
  EXPECT_EQ(SnapshotIds(q), (std::vector<int>{0, 4, 3, 5}));
}

TEST(KeyedQueueLaneTest, EnqueueAndRemoveDuringAPassAreRejected) {
  KeyedQueue q = KeyedQueue::Fifo();
  q.Enqueue(Item(0, 0, 100, 100));
  q.Drain([&q](const QueueItem&) {
    EXPECT_THROW(q.Enqueue(Item(1, 0, 200, 200)), FfsError);
    EXPECT_THROW(q.Remove(RequestId(0)), FfsError);
    return DrainVerdict::kKeep;
  });
  q.Enqueue(Item(1, 0, 200, 200));
  EXPECT_TRUE(q.Remove(RequestId(0)));
  EXPECT_EQ(SnapshotIds(q), (std::vector<int>{1}));
}

/// The pre-lane KeyedQueue: one (key, seq) map, every item offered on every
/// pass, keep-through bounds ignored. The reference for the lanes.
class SingleMapQueue {
 public:
  explicit SingleMapQueue(bool edf) : edf_(edf) {}
  void Enqueue(QueueItem item) {
    item.seq = next_seq_++;
    items_.emplace(std::make_pair(edf_ ? item.deadline : item.priority,
                                  item.seq),
                   item);
  }
  void Drain(const QueueDiscipline::DrainFn& fn) {
    for (auto it = items_.begin(); it != items_.end();) {
      if (fn(it->second) == DrainVerdict::kKeep) {
        ++it;
      } else {
        it = items_.erase(it);
      }
    }
  }
  std::vector<int> Ids() const {
    std::vector<int> out;
    for (const auto& [key, item] : items_) {
      out.push_back(static_cast<int>(item.rid.value));
    }
    return out;
  }

 private:
  bool edf_;
  std::uint64_t next_seq_ = 0;
  std::map<std::pair<SimTime, std::uint64_t>, QueueItem> items_;
};

/// What a pass did, as the router and the admission controller see it.
struct PassLog {
  std::vector<int> routed;  // rids offered to the router, in order
  std::set<int> shed;
};

/// DispatchPending's callback in miniature: the admission review, then a
/// per-function refusal bar, then a scripted router that places, refuses
/// after publishing (which clears every bar), or refuses with a promised
/// reach of due + k x 50 for k in 0..4 (due = max(deadline, now)), which
/// raises the bar to it. The router's answers come from `rng` in call
/// order.
class ScriptedDispatch {
 public:
  ScriptedDispatch(AdmissionController& admission, std::uint64_t seed)
      : admission_(admission), rng_(seed) {}

  template <typename Queue>
  PassLog Pass(Queue& q, SimTime now) {
    PassLog log;
    bars_.assign(kFunctions, kNoBar);
    q.Drain([&](const QueueItem& item) -> DrainVerdict {
      if (admission_.ReviewAtDispatch(item, now) != sim::RejectCause::kNone) {
        log.shed.insert(static_cast<int>(item.rid.value));
        return DrainVerdict::kDrop;
      }
      const SimTime due = std::max(item.deadline, now);
      SimTime& bar = bars_[static_cast<std::size_t>(item.fn.value)];
      if (due <= bar) return DrainVerdict::KeepThrough(bar);
      log.routed.push_back(static_cast<int>(item.rid.value));
      const int answer = std::uniform_int_distribution<int>(0, 9)(rng_);
      if (answer < 2) {  // placed
        bars_.assign(kFunctions, kNoBar);
        return DrainVerdict::kDispatch;
      }
      if (answer < 3) {  // refused, but a Commit published
        bars_.assign(kFunctions, kNoBar);
        return DrainVerdict::kKeep;
      }
      bar = due + 50 * std::uniform_int_distribution<SimTime>(0, 4)(rng_);
      return DrainVerdict::KeepThrough(bar);
    });
    return log;
  }

  static constexpr int kFunctions = 3;

 private:
  static constexpr SimTime kNoBar = std::numeric_limits<SimTime>::min();

  AdmissionController& admission_;
  std::mt19937_64 rng_;
  std::vector<SimTime> bars_;
};

/// Random items over 3 functions x 2 service estimates. Deadlines sit on a
/// coarse grid, so keys tie across lanes, and some are already overdue.
QueueItem RandomItem(std::mt19937_64& rng, int rid, SimTime now) {
  constexpr SimDuration kEstimates[] = {100, 250};
  const int fn = std::uniform_int_distribution<int>(0, 2)(rng);
  const SimDuration est = kEstimates[std::uniform_int_distribution<int>(0, 1)(
      rng)];
  const SimTime deadline =
      now + 50 * std::uniform_int_distribution<SimTime>(-6, 12)(rng);
  return Fifo(rid, fn, deadline, est);
}

TEST(KeyedQueueLaneTest, MatchesTheSingleMapWalkOnRandomPasses) {
  QosConfig shed_cfg;
  shed_cfg.admission = "shed";
  for (const bool edf : {false, true}) {
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
      ShedAdmission shed(shed_cfg);
      NullAdmission none;
      AdmissionController& admission =
          seed % 2 == 0 ? static_cast<AdmissionController&>(shed) : none;
      KeyedQueue lanes = edf ? KeyedQueue::Edf() : KeyedQueue::Fifo();
      SingleMapQueue ref(edf);
      ScriptedDispatch lane_router(admission, seed);
      ScriptedDispatch ref_router(admission, seed);
      std::mt19937_64 rng(seed);
      int rid = 0;
      SimTime now = 0;
      for (int pass = 0; pass < 4; ++pass) {
        const int arrivals = std::uniform_int_distribution<int>(0, 30)(rng);
        for (int i = 0; i < arrivals; ++i) {
          const QueueItem item = RandomItem(rng, rid++, now);
          lanes.Enqueue(item);
          ref.Enqueue(item);
        }
        const PassLog got = lane_router.Pass(lanes, now);
        const PassLog want = ref_router.Pass(ref, now);
        ASSERT_EQ(got.routed, want.routed)
            << "edf " << edf << " seed " << seed << " pass " << pass;
        ASSERT_EQ(got.shed, want.shed)
            << "edf " << edf << " seed " << seed << " pass " << pass;
        ASSERT_EQ(SnapshotIds(lanes), ref.Ids())
            << "edf " << edf << " seed " << seed << " pass " << pass;
        now += 50 * std::uniform_int_distribution<SimTime>(0, 4)(rng);
      }
    }
  }
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
