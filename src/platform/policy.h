// The policy seam of the platform layer.
//
// PlatformCore (platform/platform.h) is pure mechanism: instances, slice
// binding, warm weights, the pending set, arrival/utilization statistics.
// Everything a scheduler *decides* is expressed through the three narrow
// interfaces below and packaged as a PolicyBundle:
//
//   RoutingPolicy   — where does a newly arrived (or re-dispatched) request
//                     go? Called from Submit() and DispatchPending().
//   ScalingPolicy   — the periodic scan: scale-up/down and the Fig. 8 state
//                     transitions. Called once per autoscale tick, plus a
//                     completion hook for per-request bookkeeping.
//   KeepAlivePolicy — instance lifetime after idling. Runs every tick
//                     directly after the ScalingPolicy.
//   RetryPolicy     — what happens to a request whose instance failed:
//                     retry (after a backoff) or abandon. Consulted by the
//                     core's failure-recovery path.
//
// Policies receive the core by reference on every call and must not assume
// exclusive ownership; a routing and a scaling policy of one scheduler
// typically share state via shared_ptr (see core::FfsState). The built-in
// schedulers' bundles come from the harness::SystemKind table
// (harness/experiment.h); any other bundle goes straight to PlatformCore.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "qos/admission.h"

namespace fluidfaas::platform {

class Instance;
class PlatformCore;
struct FunctionSpec;

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  /// Called once when the bundle is installed on a core, before any traffic.
  virtual void Attach(PlatformCore& core) { (void)core; }

  /// Route a request; return true when it was admitted to an instance,
  /// false to leave it pending (the core re-offers pending requests on
  /// every completion and tick).
  ///
  /// Contract for refusals. Let due = max(DeadlineOf(rid), now). While the
  /// platform state is unchanged, a refusal must be monotone in due: if
  /// Route refuses a request of `fn` at due e, it would refuse every request
  /// of `fn` with due <= e. A refusal may change state only by publishing
  /// on the bus (a Commit, abort or eviction does).
  ///
  /// A refusal may also promise its reach: a bound R at or above its due
  /// such that, in the same state, Route would refuse every request of `fn`
  /// with due <= R and publish nothing. It reports R by calling
  /// core.RefuseThrough(R) before it returns false (kRefuseAll: every due).
  /// A refusal that reports nothing promises only its own due.
  ///
  /// DispatchPending relies on both: within one pass it does not re-offer a
  /// refused function's items at or below the highest due or reach a
  /// refusal covered until a Route call places a request or publishes
  /// something (DESIGN.md §9). It passes that bound to the queue as a
  /// keep-through bound, so a key-ordered queue skips the blocked run
  /// without offering it; AdmissionController::ReviewAtDispatch carries the
  /// matching contract for the admission review.
  virtual bool Route(PlatformCore& core, RequestId rid, FunctionId fn) = 0;
};

/// PlatformCore::RefuseThrough's bound for a refusal that holds at every
/// due. Far below kTimeInfinity, so a queue may add a key offset to it.
inline constexpr SimTime kRefuseAll = kTimeInfinity / 4;

/// PlatformCore::RefuseThrough's bound that promises no reach: the refusal
/// then covers only its own due.
inline constexpr SimTime kNoReach = std::numeric_limits<SimTime>::min();

class ScalingPolicy {
 public:
  virtual ~ScalingPolicy() = default;

  virtual void Attach(PlatformCore& core) { (void)core; }

  /// The periodic scan: runs every kAutoscalePeriod after the core has
  /// refreshed arrival-rate and utilization EWMAs.
  virtual void Tick(PlatformCore& core) = 0;

  /// Called after a request completes, before pending re-dispatch.
  virtual void OnCompleted(PlatformCore& core, RequestId rid, FunctionId fn) {
    (void)core;
    (void)rid;
    (void)fn;
  }
};

class KeepAlivePolicy {
 public:
  virtual ~KeepAlivePolicy() = default;

  virtual void Attach(PlatformCore& core) { (void)core; }

  /// Runs every autoscale tick, directly after ScalingPolicy::Tick.
  virtual void Tick(PlatformCore& core) { (void)core; }
};

/// Keeps everything: instance lifetime is entirely the scaling policy's
/// business (FluidFaaS manages it via the Fig. 8 transitions).
class NullKeepAlive final : public KeepAlivePolicy {};

class RetryPolicy {
 public:
  struct Decision {
    bool retry = false;
    SimDuration backoff = 0;  // resubmit delay when retry is true
  };

  virtual ~RetryPolicy() = default;

  /// A request's instance failed; `attempt` counts failures so far
  /// (1 on the first failure). Requests already past their enforcement
  /// timeout are abandoned before the policy is consulted.
  virtual Decision OnFailure(PlatformCore& core, RequestId rid, FunctionId fn,
                             int attempt) = 0;
};

/// Retry up to `max_retries` times with exponential backoff
/// (base × multiplier^(attempt−1)).
class BoundedRetryPolicy final : public RetryPolicy {
 public:
  BoundedRetryPolicy(int max_retries, SimDuration base_backoff,
                     double multiplier)
      : max_retries_(max_retries),
        base_backoff_(base_backoff),
        multiplier_(multiplier) {}

  Decision OnFailure(PlatformCore& core, RequestId rid, FunctionId fn,
                     int attempt) override;

 private:
  int max_retries_;
  SimDuration base_backoff_;
  double multiplier_;
};

/// Fail fast: every failed request is abandoned immediately.
class NoRetryPolicy final : public RetryPolicy {
 public:
  Decision OnFailure(PlatformCore&, RequestId, FunctionId, int) override {
    return Decision{};
  }
};

/// The exclusive-baseline policy: retire any instance that has sat idle
/// for config().exclusive_keepalive (120 s default), scanning instances in
/// creation order.
class FixedIdleKeepAlive final : public KeepAlivePolicy {
 public:
  void Tick(PlatformCore& core) override;
};

// -- placement steps shared by the schedulers ---------------------------------
//
// Each step has this one body; the policies compose them instead of keeping
// private copies. Every slice a step binds goes through PlatformCore::Commit.

/// The admitting instance of `insts` with the earliest estimated completion
/// (the first one on a tie), or null when none admits.
Instance* LeastLoaded(const std::vector<Instance*>& insts, SimTime now);

/// Summed CapacityRps of the admitting instances of `insts`.
double AdmittingCapacity(const std::vector<Instance*>& insts);

/// Enqueue `rid` on `inst` when the instance's backlog stays within the
/// request's SLO bound (Instance::AdmitWithinBound). False, and nothing
/// enqueued, when `inst` is null or over the bound; the refusal then
/// reports its reach (PlatformCore::RefuseThrough): every due when `inst`
/// is null, else every due below inst's Instance::AdmitsFrom.
bool AdmitBounded(PlatformCore& core, Instance* inst, RequestId rid);

/// Plan `spec` whole on the smallest free slice that holds it (on `node`
/// when given) and commit the spawn. The launched instance, or null when no
/// slice fits or the commit aborted.
Instance* LaunchMonolithic(PlatformCore& core, const FunctionSpec& spec,
                           std::optional<NodeId> node = std::nullopt);

/// The scale-up loop: call `launch` while `rate` (requests/s) exceeds
/// kScaleupLoadFactor × `capacity`, adding each new instance's capacity,
/// at most 8 times. False when a launch returned null.
bool GrowCapacity(double rate, double capacity,
                  const std::function<Instance*()>& launch);

/// Retire every draining instance that has gone idle, function by function
/// in creation order. Returns at once when no instance is draining.
void RetireDrainedIdle(PlatformCore& core);

/// A scheduler: its policies. `keepalive` may be null (treated as
/// NullKeepAlive); `retry` may be null (the core installs a
/// BoundedRetryPolicy from PlatformConfig::retry). What a scheduler did
/// (transitions, pipelines, repartitions) is counted by metrics::Recorder
/// off the events its policies publish, not by the bundle.
struct PolicyBundle {
  std::unique_ptr<RoutingPolicy> routing;
  std::unique_ptr<ScalingPolicy> scaling;
  std::unique_ptr<KeepAlivePolicy> keepalive;
  std::unique_ptr<RetryPolicy> retry;
  /// Optional QueuePolicy override. When null (every builtin scheduler) the
  /// core builds the pair qos::MakeQueuePolicy names from PlatformConfig::qos
  /// — i.e. what --queue / --admission selected.
  std::function<qos::QueuePolicy(const qos::QosConfig&)> queue;
};

}  // namespace fluidfaas::platform
