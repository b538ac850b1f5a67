// A running function instance: one or more pipeline stages, each bound to a
// MIG slice and modelled as a single-server FIFO queue.
//
// This is the simulation counterpart of Listing 1's runtime — one process
// per stage pinned to its slice, tensors handed to the next stage through
// host shared memory (the hop_out delay), eviction/termination signalled by
// the invoker. Requests flow stage by stage; a stage starts its next request
// as soon as it finishes the current one, so pipeline overlap emerges
// naturally from the event order.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/types.h"
#include "core/pipeline.h"
#include "qos/queue_discipline.h"
#include "sim/events.h"
#include "sim/simulator.h"

namespace fluidfaas::platform {

using InstanceState = sim::InstancePhase;

class LoadIndex;

class Instance {
 public:
  /// Invoked when a request leaves the last stage.
  using CompletionFn = std::function<void(RequestId)>;

  /// Lifecycle, per-slice occupancy and per-request phase attribution are
  /// published on `sim.bus()` (sim/events.h) rather than written to any
  /// observer directly.
  /// The plan is fixed for the instance's life, so its bottleneck time and
  /// end-to-end latency are computed once, here.
  Instance(InstanceId id, FunctionId fn, core::PipelinePlan plan,
           sim::Simulator& sim, CompletionFn on_complete);
  /// Leaves every LoadIndex that still lists it.
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  InstanceId id() const { return id_; }
  FunctionId function() const { return fn_; }
  const core::PipelinePlan& plan() const { return plan_; }
  InstanceState state() const { return state_; }
  /// Retired or failed (sim::Terminal).
  bool Gone() const { return sim::Terminal(state_); }
  bool IsPipelined() const { return plan_.num_stages() > 1; }

  /// Begin serving after `load_time` (model loading). Requests may be
  /// enqueued immediately; they wait and their records charge the wait to
  /// load time.
  void Launch(SimDuration load_time);

  /// Enable batched serving: a stage pulls up to `max_batch` queued
  /// requests per pass; the pass costs
  ///   exec_time x (1 + (batch-1) x marginal_cost),
  /// i.e. each extra item adds only the marginal fraction (INFless-style
  /// batching). Default is max_batch = 1 (no batching).
  void SetBatching(int max_batch, double marginal_cost);

  /// Admit a request. `jitter` scales this request's service times
  /// (sampled by the platform; 1.0 = nominal). `deadline` is its absolute
  /// SLO deadline, consulted only under StageOrder::kDeadline (0 is fine
  /// otherwise). Only valid in kLoading / kReady states.
  void Enqueue(RequestId rid, double jitter, SimTime deadline = 0);

  /// Admit a request directly into stage `stage_idx`'s queue — the
  /// recovery path for a request whose earlier stages already completed on
  /// an instance that then failed: the survivor re-runs only the failed
  /// stage onward instead of replaying the whole pipeline. Requires an
  /// identically-shaped plan (same stage count); the caller checks.
  void EnqueueAt(std::size_t stage_idx, RequestId rid, double jitter,
                 SimTime deadline = 0);

  /// Stage-queue ordering. kArrival (default) appends — the legacy FIFO —
  /// while kDeadline keeps every stage queue sorted by (deadline, arrival
  /// seq), so an EDF platform discipline carries through the pipeline.
  /// Set once at launch, before any Enqueue.
  void SetStageOrder(qos::StageOrder order) { stage_order_ = order; }
  qos::StageOrder stage_order() const { return stage_order_; }

  /// Stop admitting; the owner retires the instance once Idle(). True when
  /// this call began the drain (the instance was loading or ready).
  bool BeginDrain();

  /// Mark retired (owner releases the slices).
  void MarkRetired();

  /// Work lost when an instance crashes: the request, its jitter, and the
  /// pipeline stage it had reached (completed stages stay completed).
  struct FailedWork {
    RequestId rid;
    double jitter = 1.0;
    int stage = 0;
  };

  /// Crash the instance: every queued, in-service, and in-transfer request
  /// is lost and returned for the owner to retry or abandon; busy slices
  /// publish their SliceBusyEnd at the crash instant; the state machine
  /// moves to the terminal kFailed. Callbacks already scheduled by this
  /// instance become no-ops. The owner releases the slices afterwards.
  std::vector<FailedWork> Fail();

  /// Cancel a request that is still queued (any stage) and not yet
  /// executing or in transfer; false when it is past the point of no
  /// return (mid-execution) or unknown to this instance.
  bool Abort(RequestId rid);

  bool Idle() const { return outstanding_ == 0; }
  int outstanding() const { return outstanding_; }
  bool CanAdmit() const {
    return state_ == InstanceState::kLoading || state_ == InstanceState::kReady;
  }

  /// Steady-state service rate bound (requests/s).
  double CapacityRps() const;

  /// Estimated completion time of a request admitted now.
  SimTime EstimateCompletion(SimTime now) const {
    return std::max(now, ready_at_) + Backlog();
  }

  /// The time-free part of EstimateCompletion: the queued work ahead of a
  /// request admitted now, plus its own service latency.
  SimDuration Backlog() const {
    return static_cast<SimDuration>(outstanding_) * bottleneck_ +
           service_latency_;
  }

  /// When loading ends (Launch). Never before now while kLoading.
  SimTime ready_at() const { return ready_at_; }

  /// Shared admission policy: accept while the estimate stays within one
  /// `slo` (or twice the idle service latency, whichever is larger) past
  /// the deadline — past `now` for already-late requests. The service-
  /// latency floor is what lets a pipelined instance keep several requests
  /// in flight (stage overlap); a pure SLO bound would cap pipelines at one
  /// request whenever the SLO slack is below the bottleneck time. Overload
  /// beyond the bound belongs in the platform's EDF-ordered pending set,
  /// not in FIFO instance queues.
  bool AdmitWithinBound(SimTime now, SimTime deadline, SimDuration slo) const {
    return AdmitsFrom(now, slo) <= std::max(deadline, now);
  }

  /// The bound's one formula: the smallest due = max(deadline, now) that
  /// AdmitWithinBound admits, EstimateCompletion(now) less the allowance.
  SimTime AdmitsFrom(SimTime now, SimDuration slo) const {
    return EstimateCompletion(now) - std::max(slo, 2 * service_latency_);
  }

  /// Idle-pipeline end-to-end latency (for lowest-latency-first routing).
  SimDuration ServiceLatency() const { return service_latency_; }

  SimTime last_used() const { return last_used_; }

  /// Cumulative time with at least one stage computing, up to `now` —
  /// loading and queue waits do not count as utilization. The autoscaler
  /// differentiates successive snapshots to get windowed utilization.
  SimDuration ActiveTotal(SimTime now) const;

 private:
  friend class LoadIndex;

  // A LoadIndex that lists this instance, and the instance's slot there.
  struct Listing {
    LoadIndex* index = nullptr;
    std::uint32_t slot = 0;
  };

  /// Mark this instance's slot in every LoadIndex that lists it: its
  /// backlog, state or ready time moved.
  void Relist();

  struct PendingItem {
    RequestId rid;
    double jitter;
    SimTime enqueued;       // when it entered this stage's queue
    SimTime deadline = 0;   // absolute SLO deadline (kDeadline ordering)
    std::uint64_t seq = 0;  // admission order; the deterministic tie-break
  };
  // A pass builds its batch in in_service and hands it on from finished;
  // both buffers keep their capacity, so a pass allocates nothing.
  struct Stage {
    core::StageBinding binding;
    std::deque<PendingItem> queue;
    std::vector<PendingItem> in_service;  // the batch currently executing
    std::vector<PendingItem> finished;    // the batch that just finished
    bool busy = false;
    bool pass_scheduled = false;  // batching: a pass-start event is queued
  };
  struct TransferItem {
    PendingItem item;
    std::size_t next_stage;
    std::uint64_t hop;  // the batch's transfer, see FinishHop
  };

  /// Insert into a stage queue per stage_order_: append for kArrival,
  /// sorted by (deadline, seq) for kDeadline.
  void PushItem(Stage& stage, PendingItem item);

  /// Schedule a service pass. With batching enabled the pass starts one
  /// event-queue turn later so same-instant arrivals coalesce into one
  /// batch; without batching it starts inline.
  void TryStart(std::size_t stage_idx);
  void StartPass(std::size_t stage_idx);
  void OnStageDone(std::size_t stage_idx,
                   const std::vector<PendingItem>& batch);
  /// Deliver transfer `hop`'s batch to its next stage.
  void FinishHop(std::uint64_t hop);
  void NoteActiveTransition(bool active_now);
  void SetState(InstanceState next);

  InstanceId id_;
  FunctionId fn_;
  core::PipelinePlan plan_;
  SimDuration bottleneck_;       // plan_.BottleneckTime()
  SimDuration service_latency_;  // plan_.EndToEndLatency()
  sim::Simulator& sim_;
  CompletionFn on_complete_;

  InstanceState state_ = InstanceState::kLoading;
  SimTime ready_at_ = 0;
  SimTime last_used_ = 0;
  int outstanding_ = 0;
  // At most the platform's per-function list and one exclusive-hot list.
  // Next to outstanding_, which every Relist follows, so the mark costs no
  // cache line of its own.
  std::array<Listing, 2> listings_{};
  int busy_stages_ = 0;
  int max_batch_ = 1;
  double batch_marginal_ = 0.35;
  qos::StageOrder stage_order_ = qos::StageOrder::kArrival;
  std::uint64_t next_item_seq_ = 0;
  std::uint64_t next_hop_ = 0;

  // Active-time integrator for utilization windows.
  SimDuration active_total_ = 0;
  SimTime active_since_ = 0;

  std::vector<Stage> stages_;
  // Requests mid-hop between stages (lost on failure like queued work).
  std::vector<TransferItem> in_transfer_;
};

}  // namespace fluidfaas::platform
