// PlatformCore: the mechanism layer of the serverless platform.
//
// The core owns everything schedulers share — function registry, request
// intake, instance lifecycle (slice binding through the Cluster so strong
// isolation is enforced), warm-weights tracking, the pending set (ordered
// by the pluggable qos::QueueDiscipline, gated by the installed
// qos::AdmissionController), and per-function arrival / per-instance
// utilization statistics —
// and publishes every observable state change on the simulator's EventBus
// (sim/events.h). It makes no scheduling decisions itself.
//
// All policy lives in the PolicyBundle (platform/policy.h) installed at
// construction: RoutingPolicy decides where requests go, ScalingPolicy
// runs the periodic scan and the Fig. 8 state transitions, KeepAlivePolicy
// decides instance lifetime after idling. Schedulers are composed, not
// subclassed; harness/experiment.h maps each SystemKind to its bundle.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gpu/cluster.h"
#include "platform/config.h"
#include "platform/function.h"
#include "platform/instance.h"
#include "platform/placement.h"
#include "platform/policy.h"
#include "qos/admission.h"
#include "qos/queue_discipline.h"
#include "sim/events.h"
#include "sim/simulator.h"

namespace fluidfaas::platform {

class PlatformCore final {
 public:
  PlatformCore(sim::Simulator& sim, gpu::Cluster& cluster,
               std::vector<FunctionSpec> functions, PlatformConfig config,
               PolicyBundle bundle);
  ~PlatformCore();

  PlatformCore(const PlatformCore&) = delete;
  PlatformCore& operator=(const PlatformCore&) = delete;

  /// Start the autoscale loop. Call once before the first Submit.
  void Start();

  /// Stop periodic work (lets the event queue drain at the end of a run).
  void Stop();

  /// Invoke function `fn` now. Returns the request id.
  RequestId Submit(FunctionId fn);

  const FunctionSpec& function(FunctionId fn) const;
  const std::vector<FunctionSpec>& functions() const { return functions_; }

  sim::Simulator& simulator() const { return sim_; }
  sim::EventBus& bus() const { return sim_.bus(); }
  gpu::Cluster& cluster() const { return cluster_; }
  const PlatformConfig& config() const { return config_; }

  /// Live (neither retired nor failed) instances of a function, in creation
  /// order. The list is the core's own: RetireInstance and FailInstance
  /// remove from it and a launch appends to it, so a caller that may do
  /// either while iterating must iterate a copy.
  const std::vector<Instance*>& InstancesOf(FunctionId fn) const;

  /// Instance by id, or null for retired/failed/sentinel ids.
  Instance* FindInstance(InstanceId iid);

  /// Instances launched so far: ids are dense in creation order, so every
  /// instance id is below this. Retiring or failing an instance keeps its id.
  std::size_t InstanceIdBound() const { return instances_.size(); }

  /// The installed queue discipline (never null after construction): the
  /// requests neither completed nor admitted to an instance. Its size() is
  /// the pending depth and DepthOf(fn) the per-function one.
  const qos::QueueDiscipline& queue() const { return *pending_q_; }

  // -- mechanism operations, called by policies -----------------------------

  /// Validate `plan` against live cluster/instance state and apply it
  /// atomically (DESIGN.md §8). Slices are only ever bound here: every
  /// scheduler's placement decision — single spawn, evict-then-spawn,
  /// spawn-then-drain migration, multi-spawn scale-up, repartition — goes
  /// through one Commit. On any conflict the whole plan aborts with a typed
  /// cause and no state changes; publishes sim::PlacementCommitted /
  /// sim::PlacementAborted either way.
  CommitResult Commit(const PlacementPlan& plan);

  /// Release the sentinel bindings a RepartitionAction placed on `fresh`
  /// (the reconfiguration blackout is over). Ids already retired by a later
  /// repartition are skipped.
  void FinishRepartition(const std::vector<SliceId>& fresh,
                         InstanceId sentinel);

  /// Release slices and retire. The instance must be idle.
  void RetireInstance(Instance* inst);

  /// Drain, or retire immediately when idle. Returns true if retired now.
  bool DrainOrRetire(Instance* inst);

  /// Live instances in kDraining, all functions: DrainOrRetire's drains
  /// not yet retired or failed.
  int draining() const { return draining_; }

  /// True if the function's weights are warm in CPU memory.
  bool IsWarm(FunctionId fn) const;
  /// Note that fn's weights are now in CPU memory (refreshes the 10-minute
  /// warm window).
  void TouchWarm(FunctionId fn);

  /// Recent arrival rate of fn (requests/s, EWMA over autoscale ticks).
  double ArrivalRate(FunctionId fn) const;

  /// Utilization of an instance since the previous tick (compute-busy
  /// fraction of the tick).
  double TickUtilization(Instance* inst);

  /// Smoothed utilization over roughly kUtilWindow: an EWMA of tick
  /// utilizations, refreshed for every live instance at the start of each
  /// autoscale tick. The hotness signal behind the Fig. 8 transitions —
  /// a single sparse request does not flip an instance exclusive-hot.
  double UtilizationOf(const Instance* inst) const;

  /// Add to the pending set. The installed queue discipline orders it; the
  /// default fifo queue uses the §5.3 adjusted deadline
  /// (deadline − estimated execution − load), exactly the legacy order.
  void MakePending(RequestId rid, FunctionId fn);

  /// Re-offer pending requests in discipline order (admission may shed
  /// deadline-infeasible ones first). Called on completions and each tick;
  /// policies that free capacity out of band (e.g. after a repartition
  /// blackout) call it directly.
  ///
  /// One pass keeps, per function, a bar: the highest due = max(deadline,
  /// now) the router refused, or the higher reach a refusal promised
  /// (RefuseThrough). Every item still goes through the admission review;
  /// an item whose due is at or below its function's bar then stays
  /// pending without a Route call, which the refusal contract on
  /// RoutingPolicy::Route makes exact. A Route call that places a request
  /// or publishes on the bus clears every bar.
  void DispatchPending();

  /// Called by a router that is about to refuse: in the current state it
  /// would refuse, without publishing, every request of the same function
  /// with due <= `bound` (kRefuseAll: every due; kNoReach: only its own).
  /// DispatchPending resets the reach before each Route call and bars the
  /// function up to max(due, reach).
  void RefuseThrough(SimTime bound) { refuse_through_ = bound; }
  /// The bound last reported (tests and diagnostics).
  SimTime refuse_through() const { return refuse_through_; }

  /// Jitter factor assigned to an outstanding request at Submit().
  double JitterOf(RequestId rid) const;

  /// SLO deadline of an outstanding request.
  SimTime DeadlineOf(RequestId rid) const;

  // -- failure recovery ------------------------------------------------------
  //
  // The core subscribes to the sim::FaultInjector's command events
  // (InstanceCrashRequested, SliceFailureRequested, ColdStartFailureArmed,
  // SlowStartArmed) at construction; with no injector running the
  // subscriptions are inert and the fault path costs nothing.

  /// Crash an instance: harvest its in-flight work, release its slices,
  /// optionally fail `failed_slice` for `repair` of simulated time, then run
  /// each victim request through the RetryPolicy. No replacement is
  /// launched here; the scheduler's routing and scaling rebuild capacity.
  void FailInstance(Instance* inst, sim::FaultKind cause,
                    SliceId failed_slice = SliceId(), SimDuration repair = 0);

 private:
  struct ReqMeta {
    FunctionId fn;
    SimTime deadline = 0;
    double jitter = 1.0;
    int attempts = 0;     // instance failures survived so far
    bool timed_out = false;  // enforcement timeout fired mid-execution
    bool outstanding = true;  // false once the request finished
  };

  // One row per instance ever created, indexed by InstanceId. Retired and
  // failed instances keep their row so in-flight callbacks stay safe.
  struct InstanceRow {
    std::unique_ptr<Instance> inst;
    SimDuration active_snapshot = 0;  // ActiveTotal at the previous tick
    double util_ewma = 0.0;           // smoothed tick utilization
  };

  // An enforcement timer: `rid` expires at `expire`, under the event id
  // Submit reserved for it.
  struct Timeout {
    SimTime expire;
    sim::EventId id;
    RequestId rid;
  };

  // Per-function state, indexed by FunctionId.
  struct FunctionRow {
    std::vector<Instance*> live;  // InstancesOf(fn)
    SimTime warm_until = 0;       // weights warm in CPU memory before this
    double arrival_rate = 0.0;    // EWMA requests/s
    int arrivals_this_tick = 0;
    // The function's timers in Submit order, so expiries are nondecreasing.
    // Only the front one is scheduled, under its own (expire, id) key;
    // FireTimeout arms the next live one.
    std::deque<Timeout> timeouts;
  };

  /// Checked row indexes into functions_/fns_ and instances_.
  std::size_t FnIndex(FunctionId fn) const;
  std::size_t RowIndex(const Instance* inst) const;

  void HandleCompletion(RequestId rid);

  /// Commit-internal: bind the plan's slices, create the instance, and
  /// start loading. `warm` selects the warm- vs cold-load path for the
  /// weight bytes; `extra_load_delay` serializes in front of the load
  /// (e.g. the D2H checkpoint of an instance just evicted from the target
  /// slice). Only Commit() calls this, which keeps every Bind inside the
  /// transaction boundary.
  Instance* LaunchInstance(const FunctionSpec& fn, core::PipelinePlan plan,
                           bool warm, SimDuration extra_load_delay = 0);

  /// Validation half of Commit: first cause that would make `plan`
  /// inapplicable against live state, or kNone.
  sim::PlanAbortCause ValidatePlan(const PlacementPlan& plan);

  /// Per-request service-time jitter factor.
  double SampleJitter();

  /// The metadata of `rid` while it is outstanding, else null.
  const ReqMeta* FindMeta(RequestId rid) const;
  ReqMeta* FindMeta(RequestId rid) {
    return const_cast<ReqMeta*>(std::as_const(*this).FindMeta(rid));
  }
  /// Forget a finished request. Rows leave the window from the front only,
  /// once every older request finished too.
  void EraseMeta(RequestId rid);

  /// Assemble the discipline's view of a request: absolute deadline, the
  /// §5.3 adjusted-deadline priority, and the execution + load estimate
  /// the adjustment subtracted (fair queueing's virtual-time cost).
  qos::QueueItem MakeQueueItem(RequestId rid, FunctionId fn) const;

  /// Publish sim::PendingDepthChanged when the pending depth moved since
  /// the last publication.
  void PublishPendingDepth();

  /// Reject `rid` with a typed cause: publish sim::RequestRejected and
  /// forget the request (terminal — it will never complete).
  void RejectRequest(RequestId rid, FunctionId fn, sim::RejectCause cause);

  /// Run one crash victim through the retry policy.
  void HandleFailedRequest(RequestId rid, int stage, int num_stages);

  /// Re-admit a retried request after its backoff. `stage` > 0 resumes a
  /// pipeline at the failed stage when a same-shape instance can admit it.
  void Resubmit(RequestId rid, FunctionId fn, int stage, int num_stages);

  /// Mark `sid` failed now and schedule its repair.
  void FailSlice(SliceId sid, SimDuration repair);

  /// Schedule the front of `fn`'s timer lane under its reserved id.
  void ArmTimeout(FunctionId fn);

  /// The front timer of `fn` fired: pop it, drop the following timers of
  /// requests that already finished (each would fire as a no-op), arm the
  /// next one, then expire the popped request.
  void FireTimeout(FunctionId fn);

  /// Enforcement-timeout expiry for `rid` (armed at Submit when
  /// config.request_timeout_scale > 0).
  void ExpireRequest(RequestId rid);

  std::vector<FunctionSpec> functions_;
  sim::Simulator& sim_;
  gpu::Cluster& cluster_;
  PlatformConfig config_;
  Rng rng_;

  std::unique_ptr<RoutingPolicy> routing_;
  std::unique_ptr<ScalingPolicy> scaling_;
  std::unique_ptr<KeepAlivePolicy> keepalive_;
  std::unique_ptr<RetryPolicy> retry_;
  std::unique_ptr<qos::QueueDiscipline> pending_q_;
  std::unique_ptr<qos::AdmissionController> admission_;

  // Fault-command subscriptions (auto-unsubscribed at destruction).
  std::vector<sim::EventBus::Subscription> fault_subs_;
  int pending_cold_failures_ = 0;          // armed cold-start failures
  int draining_ = 0;                       // see draining()
  std::deque<double> pending_slow_factors_;  // armed slow-start multipliers

  std::unique_ptr<sim::PeriodicTask> autoscale_;

  std::vector<InstanceRow> instances_;
  std::vector<FunctionRow> fns_;
  SimTime last_tick_ = 0;

  // Last published pending depth (dedup for PendingDepthChanged).
  std::size_t last_depth_published_ = 0;

  // DispatchPending's refusal bars, one per function: the highest due or
  // promised reach the router refused in the current pass.
  std::vector<SimTime> refused_due_;
  // The reach of the Route call in flight (RefuseThrough).
  SimTime refuse_through_ = kNoReach;

  // Per-request metadata: a dense window over the ids from the oldest
  // outstanding request to the newest, so a request costs no allocation.
  // meta_[i] belongs to id meta_base_ + i; rows before meta_head_ and rows
  // whose outstanding flag is off are finished requests.
  std::vector<ReqMeta> meta_;
  std::size_t meta_head_ = 0;
  std::int64_t meta_base_ = 0;

  std::int64_t next_request_id_ = 0;

  // SampleJitter's log-normal parameters, fixed by the config.
  double jitter_mu_ = 0.0;
  double jitter_sigma_ = 0.0;
};

}  // namespace fluidfaas::platform
