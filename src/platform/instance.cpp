#include "platform/instance.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "platform/load_index.h"
#include "sim/events.h"

namespace fluidfaas::platform {

Instance::Instance(InstanceId id, FunctionId fn, core::PipelinePlan plan,
                   sim::Simulator& sim, CompletionFn on_complete)
    : id_(id),
      fn_(fn),
      plan_(std::move(plan)),
      bottleneck_(plan_.BottleneckTime()),
      service_latency_(plan_.EndToEndLatency()),
      sim_(sim),
      on_complete_(std::move(on_complete)) {
  FFS_CHECK(!plan_.stages.empty());
  stages_.reserve(plan_.stages.size());
  for (const core::StageBinding& b : plan_.stages) {
    Stage s;
    s.binding = b;
    stages_.push_back(std::move(s));
  }
  last_used_ = sim_.Now();
}

Instance::~Instance() {
  for (const Listing& l : listings_) {
    if (l.index != nullptr) l.index->Forget(l.slot);
  }
}

void Instance::Relist() {
  for (const Listing& l : listings_) {
    if (l.index != nullptr) l.index->Mark(l.slot);
  }
}

void Instance::SetState(InstanceState next) {
  if (state_ == next) return;
  sim_.bus().Publish(sim::InstanceStateChanged{id_, fn_, next, sim_.Now()});
  state_ = next;
  Relist();
}

void Instance::Launch(SimDuration load_time) {
  FFS_CHECK(state_ == InstanceState::kLoading);
  ready_at_ = sim_.Now() + load_time;
  if (load_time == 0) {
    SetState(InstanceState::kReady);
    return;
  }
  Relist();
  sim_.At(ready_at_, [this] {
    if (Gone()) return;
    if (state_ == InstanceState::kLoading) SetState(InstanceState::kReady);
    // Also kick stages when draining: requests admitted before the drain
    // must still be served.
    for (std::size_t i = 0; i < stages_.size(); ++i) TryStart(i);
  });
}

void Instance::NoteActiveTransition(bool active_now) {
  if (active_now) {
    active_since_ = sim_.Now();
  } else {
    active_total_ += sim_.Now() - active_since_;
  }
}

void Instance::Enqueue(RequestId rid, double jitter, SimTime deadline) {
  EnqueueAt(0, rid, jitter, deadline);
}

void Instance::EnqueueAt(std::size_t stage_idx, RequestId rid, double jitter,
                         SimTime deadline) {
  FFS_CHECK_MSG(CanAdmit(), "enqueue on non-admitting instance");
  FFS_CHECK(jitter > 0.0);
  FFS_CHECK(stage_idx < stages_.size());
  ++outstanding_;
  Relist();
  last_used_ = sim_.Now();
  PushItem(stages_[stage_idx],
           PendingItem{rid, jitter, sim_.Now(), deadline, next_item_seq_++});
  TryStart(stage_idx);
}

void Instance::PushItem(Stage& stage, PendingItem item) {
  if (stage_order_ == qos::StageOrder::kArrival) {
    stage.queue.push_back(item);
    return;
  }
  // kDeadline: keep the queue sorted by (deadline, seq). seq makes the
  // order a total one — equal deadlines serve in admission order, never in
  // an incidental one.
  const auto pos = std::upper_bound(
      stage.queue.begin(), stage.queue.end(), item,
      [](const PendingItem& a, const PendingItem& b) {
        if (a.deadline != b.deadline) return a.deadline < b.deadline;
        return a.seq < b.seq;
      });
  stage.queue.insert(pos, item);
}

std::vector<Instance::FailedWork> Instance::Fail() {
  FFS_CHECK_MSG(!Gone(), "Fail() on an already-dead instance");
  const SimTime now = sim_.Now();
  std::vector<FailedWork> victims;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& st = stages_[i];
    for (const PendingItem& item : st.in_service) {
      victims.push_back(FailedWork{item.rid, item.jitter,
                                   static_cast<int>(i)});
    }
    st.in_service.clear();
    for (const PendingItem& item : st.queue) {
      victims.push_back(FailedWork{item.rid, item.jitter,
                                   static_cast<int>(i)});
    }
    st.queue.clear();
    if (st.busy) {
      st.busy = false;
      sim_.bus().Publish(sim::SliceBusyEnd{st.binding.slice, id_, now});
    }
  }
  // A mid-hop request completed the previous stage; it resumes at the next.
  for (const TransferItem& t : in_transfer_) {
    victims.push_back(FailedWork{t.item.rid, t.item.jitter,
                                 static_cast<int>(t.next_stage)});
  }
  in_transfer_.clear();
  if (busy_stages_ > 0) {
    busy_stages_ = 0;
    NoteActiveTransition(false);
  }
  outstanding_ = 0;
  SetState(InstanceState::kFailed);
  return victims;
}

bool Instance::Abort(RequestId rid) {
  if (Gone()) return false;
  for (Stage& st : stages_) {
    for (auto it = st.queue.begin(); it != st.queue.end(); ++it) {
      if (it->rid == rid) {
        st.queue.erase(it);
        FFS_CHECK(outstanding_ > 0);
        --outstanding_;
        Relist();
        return true;
      }
    }
  }
  return false;  // executing or mid-transfer: past the point of no return
}

bool Instance::BeginDrain() {
  if (state_ != InstanceState::kLoading && state_ != InstanceState::kReady) {
    return false;
  }
  SetState(InstanceState::kDraining);
  return true;
}

void Instance::MarkRetired() {
  FFS_CHECK_MSG(Idle(), "retiring an instance with in-flight requests");
  SetState(InstanceState::kRetired);
}

double Instance::CapacityRps() const {
  return bottleneck_ > 0 ? 1e6 / static_cast<double>(bottleneck_) : 0.0;
}

SimDuration Instance::ActiveTotal(SimTime now) const {
  SimDuration t = active_total_;
  if (busy_stages_ > 0) t += now - active_since_;
  return t;
}

void Instance::SetBatching(int max_batch, double marginal_cost) {
  FFS_CHECK(max_batch >= 1);
  FFS_CHECK(marginal_cost >= 0.0 && marginal_cost <= 1.0);
  max_batch_ = max_batch;
  batch_marginal_ = marginal_cost;
}

void Instance::TryStart(std::size_t stage_idx) {
  Stage& st = stages_[stage_idx];
  if (st.busy || st.queue.empty()) return;
  if (sim_.Now() < ready_at_) return;  // weights still loading
  if (Gone()) return;
  if (max_batch_ <= 1) {
    StartPass(stage_idx);
    return;
  }
  // Batched: defer one event-queue turn so same-instant arrivals join.
  if (st.pass_scheduled) return;
  st.pass_scheduled = true;
  sim_.After(0, [this, stage_idx] {
    if (Gone()) return;
    stages_[stage_idx].pass_scheduled = false;
    Stage& s = stages_[stage_idx];
    if (s.busy || s.queue.empty()) return;
    if (sim_.Now() < ready_at_) return;
    StartPass(stage_idx);
  });
}

void Instance::StartPass(std::size_t stage_idx) {
  Stage& st = stages_[stage_idx];
  const SimTime now = sim_.Now();
  std::vector<PendingItem>& batch = st.in_service;
  double jitter_sum = 0.0;
  while (!st.queue.empty() &&
         batch.size() < static_cast<std::size_t>(max_batch_)) {
    PendingItem item = st.queue.front();
    st.queue.pop_front();

    // Attribute the wait in this stage's queue: stage-0 waits that overlap
    // the loading interval are load time, everything else is queueing.
    SimDuration wait = now - item.enqueued;
    if (stage_idx == 0 && ready_at_ > item.enqueued) {
      const SimDuration load_part = std::min(now, ready_at_) - item.enqueued;
      if (load_part != 0) {
        sim_.bus().Publish(sim::RequestPhaseAccrued{
            item.rid, sim::RequestPhase::kLoad, load_part, now});
      }
      wait -= load_part;
    }
    if (wait != 0) {
      sim_.bus().Publish(sim::RequestPhaseAccrued{
          item.rid, sim::RequestPhase::kQueue, wait, now});
    }
    jitter_sum += item.jitter;
    batch.push_back(item);
  }
  const auto n = static_cast<double>(batch.size());
  const double batch_factor = 1.0 + (n - 1.0) * batch_marginal_;
  const SimDuration service = static_cast<SimDuration>(std::llround(
      static_cast<double>(st.binding.exec_time) * (jitter_sum / n) *
      batch_factor));
  // Execution time is attributed per request as its share of the pass.
  const SimDuration per_item = static_cast<SimDuration>(
      std::llround(static_cast<double>(service) / n));
  for (const PendingItem& item : batch) {
    if (per_item != 0) {
      sim_.bus().Publish(sim::RequestPhaseAccrued{
          item.rid, sim::RequestPhase::kExec, per_item, now});
    }
  }

  st.busy = true;
  if (busy_stages_++ == 0) NoteActiveTransition(true);
  sim_.bus().Publish(sim::SliceBusyBegin{st.binding.slice, id_, now});
  // Capturing only [this, stage_idx] keeps the closure inside
  // std::function's small buffer.
  sim_.After(service, [this, stage_idx] {
    // A crash mid-pass already harvested this batch as failed work.
    if (state_ == InstanceState::kFailed) return;
    Stage& s = stages_[stage_idx];
    sim_.bus().Publish(sim::SliceBusyEnd{s.binding.slice, id_, sim_.Now()});
    s.busy = false;
    // Hand the batch on from the other buffer: a completion may start this
    // stage's next pass, which refills in_service.
    s.finished.swap(s.in_service);
    s.in_service.clear();
    if (--busy_stages_ == 0) NoteActiveTransition(false);
    OnStageDone(stage_idx, s.finished);
    TryStart(stage_idx);
  });
}

void Instance::OnStageDone(std::size_t stage_idx,
                           const std::vector<PendingItem>& batch) {
  const SimTime now = sim_.Now();
  if (stage_idx + 1 == stages_.size()) {
    for (const PendingItem& item : batch) {
      FFS_CHECK(outstanding_ > 0);
      --outstanding_;
      Relist();
      last_used_ = now;
      on_complete_(item.rid);
    }
    return;
  }
  // The whole batch crosses the hop in one transfer; charge each request
  // its share.
  const SimDuration hop = stages_[stage_idx].binding.hop_out;
  const SimDuration per_item = static_cast<SimDuration>(std::llround(
      static_cast<double>(hop) / static_cast<double>(batch.size())));
  for (const PendingItem& item : batch) {
    if (per_item != 0) {
      sim_.bus().Publish(sim::RequestPhaseAccrued{
          item.rid, sim::RequestPhase::kTransfer, per_item, now});
    }
  }
  const std::uint64_t id = next_hop_++;
  for (const PendingItem& item : batch) {
    in_transfer_.push_back(TransferItem{item, stage_idx + 1, id});
  }
  sim_.After(hop, [this, id] { FinishHop(id); });
}

void Instance::FinishHop(std::uint64_t hop) {
  // A crash mid-hop already harvested these items from in_transfer_.
  if (Gone()) return;
  std::size_t next = 0;
  for (const TransferItem& t : in_transfer_) {
    if (t.hop != hop) continue;
    next = t.next_stage;
    PushItem(stages_[next], PendingItem{t.item.rid, t.item.jitter, sim_.Now(),
                                        t.item.deadline, t.item.seq});
  }
  FFS_CHECK_MSG(next > 0, "transfer without items");
  std::erase_if(in_transfer_,
                [hop](const TransferItem& t) { return t.hop == hop; });
  TryStart(next);
}

}  // namespace fluidfaas::platform
