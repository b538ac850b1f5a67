#include "qos/queue_discipline.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace fluidfaas::qos {

// --- KeyedQueue -------------------------------------------------------------

void KeyedQueue::Enqueue(QueueItem item) {
  item.seq = NextSeq();
  items_.emplace(std::make_pair(item.*key_, item.seq), item);
}

bool KeyedQueue::Remove(RequestId rid) {
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    if (it->second.rid == rid) {
      items_.erase(it);
      return true;
    }
  }
  return false;
}

void KeyedQueue::Drain(const DrainFn& fn) {
  auto it = items_.begin();
  while (it != items_.end()) {
    const DrainVerdict v = fn(it->second);
    if (v == DrainVerdict::kKeep) {
      ++it;
    } else {
      it = items_.erase(it);
    }
  }
}

std::size_t KeyedQueue::DepthOf(FunctionId fn) const {
  std::size_t n = 0;
  for (const auto& [key, item] : items_) {
    if (item.fn == fn) ++n;
  }
  return n;
}

std::vector<QueueItem> KeyedQueue::Snapshot() const {
  std::vector<QueueItem> out;
  out.reserve(items_.size());
  for (const auto& [key, item] : items_) out.push_back(item);
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
    while (!flow.backlog.empty() && granted < sticky_batch_) {
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
    while (!best->second.empty() && granted < sticky_batch_) {
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
