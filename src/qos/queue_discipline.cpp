#include "qos/queue_discipline.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace fluidfaas::qos {

// --- KeyedQueue -------------------------------------------------------------

void KeyedQueue::Enqueue(QueueItem item) {
  FFS_CHECK_MSG(!draining_, "Enqueue during a drain pass");
  item.seq = NextSeq();
  const SimDuration offset = item.*key_ - item.deadline;
  auto lane = std::find_if(lanes_.begin(), lanes_.end(), [&](const Lane& l) {
    return l.fn == item.fn && l.service_estimate == item.service_estimate &&
           l.offset == offset;
  });
  if (lane == lanes_.end()) {
    lane = lanes_.insert(lanes_.end(),
                         Lane{item.fn, item.service_estimate, offset, {}, {}});
  }
  lane->items.emplace(Pos{item.*key_, item.seq}, item);
  ++size_;
}

bool KeyedQueue::Remove(RequestId rid) {
  FFS_CHECK_MSG(!draining_, "Remove during a drain pass");
  for (auto lane = lanes_.begin(); lane != lanes_.end(); ++lane) {
    for (auto it = lane->items.begin(); it != lane->items.end(); ++it) {
      if (it->second.rid != rid) continue;
      lane->items.erase(it);
      if (lane->items.empty()) lanes_.erase(lane);
      --size_;
      return true;
    }
  }
  return false;
}

KeyedQueue::Lane* KeyedQueue::NextLane() {
  Lane* best = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.cursor == lane.items.end()) continue;
    if (best == nullptr || lane.cursor->first < best->cursor->first) {
      best = &lane;
    }
  }
  return best;
}

void KeyedQueue::Drain(const DrainFn& fn) {
  FFS_CHECK_MSG(!draining_, "re-entrant drain pass");
  draining_ = true;
  for (Lane& lane : lanes_) lane.cursor = lane.items.begin();
  // Set while a keep-through jump stands: until the callback's state moves,
  // the items it skipped would all be answered kKeep.
  bool jumped = false;
  while (Lane* lane = NextLane()) {
    const auto it = lane->cursor;
    const Pos pos = it->first;
    const DrainVerdict v = fn(it->second);
    if (v.bounded()) {
      // The head passed the admission review, so every later item of its
      // lane would too (the ReviewAtDispatch contract): jump over the
      // lane's items with deadline <= bound. Most jumps pass the lane's
      // last item, which needs no search.
      FFS_CHECK(v.keep_through() >= it->second.deadline);
      const SimTime through = v.keep_through() + lane->offset;
      lane->cursor =
          lane->items.rbegin()->first.first <= through
              ? lane->items.end()
              : lane->items.upper_bound(
                    {through, std::numeric_limits<std::uint64_t>::max()});
      jumped = true;
      continue;
    }
    if (v == DrainVerdict::kKeep) {
      ++lane->cursor;
    } else {
      lane->cursor = lane->items.erase(it);
      --size_;
    }
    if (jumped && v != DrainVerdict::kDrop) {
      // The state may have moved: offer again every skipped item that
      // comes after this one.
      for (Lane& l : lanes_) l.cursor = l.items.upper_bound(pos);
      jumped = false;
    }
  }
  std::erase_if(lanes_, [](const Lane& l) { return l.items.empty(); });
  draining_ = false;
}

std::size_t KeyedQueue::DepthOf(FunctionId fn) const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) {
    if (lane.fn == fn) n += lane.items.size();
  }
  return n;
}

std::vector<QueueItem> KeyedQueue::Snapshot() const {
  std::vector<QueueItem> out;
  out.reserve(size_);
  for (const Lane& lane : lanes_) {
    for (const auto& [pos, item] : lane.items) out.push_back(item);
  }
  std::sort(out.begin(), out.end(), [this](const QueueItem& a,
                                           const QueueItem& b) {
    return Pos{a.*key_, a.seq} < Pos{b.*key_, b.seq};
  });
  return out;
}

// --- FairQueue --------------------------------------------------------------

void FairQueue::Enqueue(QueueItem item) {
  item.seq = NextSeq();
  Flow& flow = flows_[item.fn.value];
  Tagged t;
  t.item = item;
  // An idle flow restarts at the current virtual time; a backlogged flow
  // serializes behind its own previous item (per-flow FIFO).
  const std::uint64_t prev =
      flow.backlog.empty() ? flow.last_finish : flow.backlog.back().finish;
  t.start = std::max(vtime_, prev);
  const auto cost = static_cast<std::uint64_t>(
      std::max<SimDuration>(item.service_estimate, 1));
  t.finish = t.start + cost;
  flow.backlog.push_back(t);
  ++size_;
}

bool FairQueue::Remove(RequestId rid) {
  for (auto& [fn, flow] : flows_) {
    for (auto it = flow.backlog.begin(); it != flow.backlog.end(); ++it) {
      if (it->item.rid == rid) {
        // Later tags in the flow keep their values: removal may leave a
        // gap in virtual time but never reorders anything, so dequeue
        // order stays deterministic.
        flow.backlog.erase(it);
        --size_;
        return true;
      }
    }
  }
  return false;
}

std::map<std::int32_t, FairQueue::Flow>::iterator FairQueue::PickFlow(
    const std::vector<std::int32_t>& blocked) {
  auto best = flows_.end();
  std::uint64_t best_finish = std::numeric_limits<std::uint64_t>::max();
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    if (it->second.backlog.empty()) continue;
    if (std::find(blocked.begin(), blocked.end(), it->first) !=
        blocked.end()) {
      continue;
    }
    const Tagged& head = it->second.backlog.front();
    // Strict < with ascending map order makes ties resolve to the lowest
    // FunctionId; equal ids cannot collide (one flow per function).
    if (head.finish < best_finish) {
      best_finish = head.finish;
      best = it;
    }
  }
  return best;
}

void FairQueue::Drain(const DrainFn& fn) {
  // A kKeep answer blocks that whole flow for the rest of the pass:
  // per-function order must hold, so nothing behind the stuck head may
  // overtake it. Other flows keep draining.
  std::vector<std::int32_t> blocked;
  auto it = PickFlow(blocked);
  while (it != flows_.end()) {
    Flow& flow = it->second;
    int granted = 0;
    while (!flow.backlog.empty() && granted < kStickyBatch) {
      const Tagged head = flow.backlog.front();
      const DrainVerdict v = fn(head.item);
      if (v == DrainVerdict::kKeep) {
        blocked.push_back(it->first);
        break;
      }
      flow.backlog.pop_front();
      --size_;
      if (v == DrainVerdict::kDispatch) {
        // Advance virtual time to the dispatched start tag and remember
        // the flow's finish so a momentarily-idle flow cannot bank credit.
        vtime_ = std::max(vtime_, head.start);
        flow.last_finish = head.finish;
        ++granted;
      }
      // kDrop: shed work consumes no virtual time — the flow is not
      // charged for items the admission controller refused.
    }
    it = PickFlow(blocked);
  }
}

std::size_t FairQueue::DepthOf(FunctionId fn) const {
  auto it = flows_.find(fn.value);
  return it == flows_.end() ? 0 : it->second.backlog.size();
}

std::vector<QueueItem> FairQueue::Snapshot() const {
  // Dequeue order without side effects: repeatedly pick the minimum head
  // finish tag over copies of the flow backlogs.
  std::map<std::int32_t, std::deque<Tagged>> rest;
  for (const auto& [fnv, flow] : flows_) {
    if (!flow.backlog.empty()) rest[fnv] = flow.backlog;
  }
  std::vector<QueueItem> out;
  out.reserve(size_);
  while (!rest.empty()) {
    auto best = rest.end();
    std::uint64_t best_finish = std::numeric_limits<std::uint64_t>::max();
    for (auto it = rest.begin(); it != rest.end(); ++it) {
      if (it->second.front().finish < best_finish) {
        best_finish = it->second.front().finish;
        best = it;
      }
    }
    int granted = 0;
    while (!best->second.empty() && granted < kStickyBatch) {
      out.push_back(best->second.front().item);
      best->second.pop_front();
      ++granted;
    }
    if (best->second.empty()) rest.erase(best);
  }
  return out;
}

// --- factory ----------------------------------------------------------------

std::unique_ptr<QueueDiscipline> MakeQueueDiscipline(const QosConfig& config) {
  if (config.queue == "fifo") {
    return std::make_unique<KeyedQueue>(KeyedQueue::Fifo());
  }
  if (config.queue == "edf") {
    return std::make_unique<KeyedQueue>(KeyedQueue::Edf());
  }
  if (config.queue == "fair") return std::make_unique<FairQueue>();
  throw FfsError("unknown queue discipline: " + config.queue +
                 " (known: edf, fair, fifo)");
}

}  // namespace fluidfaas::qos
