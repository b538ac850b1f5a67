// The typed event vocabulary of the simulation, published on the EventBus.
//
// Every observable state change of a run — request lifecycle, instance
// lifecycle, per-slice occupancy, the Fig. 8 scheduler transitions, and
// runtime GPU repartitions — is announced as one of these structs. Event
// publication is synchronous and in simulated-time order, so subscribers
// (metrics::Recorder, metrics::TraceExporter, tests) observe exactly the
// sequence the platform executed, and attaching or detaching a subscriber
// can never perturb the simulation itself.
//
// The structs use only common/types vocabulary so any layer above sim can
// publish or subscribe without new dependencies.
#pragma once

#include <string>
#include <type_traits>

#include "common/types.h"

namespace fluidfaas::sim {

// --- request lifecycle -----------------------------------------------------

/// Where a request's wall-clock went; mirrors metrics::RequestRecord fields.
enum class RequestPhase { kQueue, kLoad, kExec, kTransfer };

constexpr const char* Name(RequestPhase p) {
  switch (p) {
    case RequestPhase::kQueue:
      return "queue";
    case RequestPhase::kLoad:
      return "load";
    case RequestPhase::kExec:
      return "exec";
    case RequestPhase::kTransfer:
      return "transfer";
  }
  return "?";
}

/// A request entered the platform (deadline = arrival + SLO).
struct RequestSubmitted {
  RequestId rid;
  FunctionId fn;
  SimTime at = 0;
  SimTime deadline = 0;
};

/// A request spent `amount` more simulated time in `phase`.
struct RequestPhaseAccrued {
  RequestId rid;
  RequestPhase phase = RequestPhase::kQueue;
  SimDuration amount = 0;
  SimTime at = 0;
};

/// A request left the last pipeline stage.
struct RequestCompleted {
  RequestId rid;
  FunctionId fn;
  SimTime at = 0;
};

// --- instance lifecycle ----------------------------------------------------

/// An instance's lifecycle state (platform::InstanceState is this type).
/// Defined here so subscribers below the platform layer can name it.
enum class InstancePhase {
  kLoading,   // weights in flight to the slice(s)
  kReady,     // serving
  kDraining,  // finishing in-flight requests; no new admissions
  kRetired,   // slices released
  kFailed,    // crashed; in-flight work was lost
};

/// Retired or failed: the instance holds no slice and never serves again.
constexpr bool Terminal(InstancePhase p) {
  return p == InstancePhase::kRetired || p == InstancePhase::kFailed;
}

constexpr const char* Name(InstancePhase p) {
  switch (p) {
    case InstancePhase::kLoading:
      return "loading";
    case InstancePhase::kReady:
      return "ready";
    case InstancePhase::kDraining:
      return "draining";
    case InstancePhase::kRetired:
      return "retired";
    case InstancePhase::kFailed:
      return "failed";
  }
  return "?";
}

struct InstanceStateChanged {
  InstanceId iid;
  FunctionId fn;
  InstancePhase to = InstancePhase::kLoading;
  SimTime at = 0;
};

// --- slice occupancy -------------------------------------------------------

/// A MIG slice was allocated to an instance ("bound"/occupied).
struct SliceBound {
  SliceId slice;
  InstanceId iid;
  SimTime at = 0;
};

struct SliceReleased {
  SliceId slice;
  InstanceId iid;
  SimTime at = 0;
};

/// A stage began computing on its slice ("busy"/actively used).
struct SliceBusyBegin {
  SliceId slice;
  InstanceId iid;
  SimTime at = 0;
};

struct SliceBusyEnd {
  SliceId slice;
  InstanceId iid;
  SimTime at = 0;
};

// --- scheduler state transitions (Fig. 8) ----------------------------------

/// The hotness-state moves of §5.3: ② promotion to exclusive-hot,
/// ③ demotion to time sharing, ④ eviction to CPU-warm, ⑤ cold drop, plus
/// the pipeline → monolithic migration.
enum class TransitionKind {
  kPromotion,
  kDemotion,
  kEviction,
  kMigration,
  kColdDrop,
};

constexpr const char* Name(TransitionKind k) {
  switch (k) {
    case TransitionKind::kPromotion:
      return "promotion";
    case TransitionKind::kDemotion:
      return "demotion";
    case TransitionKind::kEviction:
      return "eviction";
    case TransitionKind::kMigration:
      return "migration";
    case TransitionKind::kColdDrop:
      return "cold-drop";
  }
  return "?";
}

/// Number of TransitionKind values (for per-kind counter arrays).
inline constexpr int kNumTransitionKinds =
    static_cast<int>(TransitionKind::kColdDrop) + 1;

struct SchedulerTransition {
  TransitionKind kind = TransitionKind::kPromotion;
  FunctionId fn;
  InstanceId iid;  // invalid when the transition has no live instance
  SimTime at = 0;
};

// --- fault injection & recovery --------------------------------------------

/// The fault taxonomy of the failure model (DESIGN.md "Failure model").
enum class FaultKind {
  kInstanceCrash,     // a running instance's process dies
  kSliceFailure,      // a MIG slice becomes unusable until repaired
  kColdStartFailure,  // the next cold start crashes at the end of loading
  kSlowStart,         // the next instance launch loads k× slower
};

constexpr const char* Name(FaultKind k) {
  switch (k) {
    case FaultKind::kInstanceCrash:
      return "instance-crash";
    case FaultKind::kSliceFailure:
      return "slice-failure";
    case FaultKind::kColdStartFailure:
      return "cold-start-failure";
    case FaultKind::kSlowStart:
      return "slow-start";
  }
  return "?";
}

// Fault *commands*, published by sim::FaultInjector and consumed by the
// platform's recovery machinery. The injector deals only in ids, so the sim
// layer stays below the platform; a command naming a dead/retired entity is
// ignored by the subscriber (the injection still counts, deterministically).

/// Crash the named instance now (all in-flight work on it is lost).
struct InstanceCrashRequested {
  InstanceId iid;
  SimTime at = 0;
};

/// Fail a MIG slice for `repair` of simulated time. If the slice is bound,
/// its occupant instance crashes with it (strong isolation: only that one
/// instance is affected).
struct SliceFailureRequested {
  SliceId slice;
  SimTime at = 0;
  SimDuration repair = 0;
};

/// Arm a cold-start failure: the next cold instance launch crashes when its
/// load completes (the load time is wasted).
struct ColdStartFailureArmed {
  SimTime at = 0;
};

/// Arm a slow-start straggler: the next instance launch loads factor× slower.
struct SlowStartArmed {
  double factor = 1.0;
  SimTime at = 0;
};

// Fault *observations*, published by the platform as recovery unfolds so
// metrics/tracing see the availability story without platform dependencies.

/// An instance failed (crash, slice loss, or doomed cold start).
struct InstanceFailed {
  InstanceId iid;
  FunctionId fn;
  FaultKind cause = FaultKind::kInstanceCrash;
  SimTime at = 0;
};

/// A slice became unallocatable; expected back at `at + repair`.
struct SliceFailed {
  SliceId slice;
  SimTime at = 0;
  SimDuration repair = 0;
};

struct SliceRepaired {
  SliceId slice;
  SimTime at = 0;
};

/// A request exceeded its enforcement timeout. Mid-queue expiry cancels the
/// request outright (it never completes); mid-execution expiry lets the pass
/// finish but the request no longer counts toward goodput.
struct RequestTimedOut {
  RequestId rid;
  FunctionId fn;
  bool mid_execution = false;
  SimTime at = 0;
};

/// A failed request is being retried (attempt = failures so far). `resume`
/// is true when the retry re-enters a pipeline at the failed stage instead
/// of replaying completed stages.
struct RequestRetried {
  RequestId rid;
  FunctionId fn;
  int attempt = 0;
  bool resume = false;
  SimTime at = 0;
};

/// The retry policy gave up on a request; it will never complete.
struct RequestAbandoned {
  RequestId rid;
  FunctionId fn;
  int attempts = 0;
  SimTime at = 0;
};

// --- QoS: admission control & queueing (DESIGN.md §9) ----------------------

/// Why the admission controller refused a request. kNone means admitted;
/// the other causes are terminal — a rejected request never completes.
enum class RejectCause {
  kNone,                // admitted
  kQueueFull,           // pending-queue depth cap exceeded
  kRateLimited,         // token bucket empty at submission
  kDeadlineInfeasible,  // could not meet its SLO even if dispatched now
};

constexpr const char* Name(RejectCause c) {
  switch (c) {
    case RejectCause::kNone:
      return "none";
    case RejectCause::kQueueFull:
      return "queue-full";
    case RejectCause::kRateLimited:
      return "rate-limited";
    case RejectCause::kDeadlineInfeasible:
      return "deadline-infeasible";
  }
  return "?";
}

/// Number of RejectCause values (for per-cause counter arrays).
inline constexpr int kNumRejectCauses =
    static_cast<int>(RejectCause::kDeadlineInfeasible) + 1;

/// The admission controller refused a request, at submission (rate limit,
/// full queue) or when dispatch sheds work that already blew its deadline
/// budget.
struct RequestRejected {
  RequestId rid;
  FunctionId fn;
  RejectCause cause = RejectCause::kNone;
  SimTime at = 0;
};

/// The platform's central pending-queue depth changed — the backpressure
/// signal autoscalers and observers consume. Published after every batch of
/// enqueues/dispatches, not per item.
struct PendingDepthChanged {
  std::size_t depth = 0;
  SimTime at = 0;
};

// --- placement transactions (DESIGN.md §8) ---------------------------------

/// Why a placement plan failed validation at commit time. The taxonomy is
/// exactly the set of ways live state can drift from the ClusterView a plan
/// was built on: slices retire (repartition), fail, or get taken by a
/// concurrent planner; eviction/drain victims vanish or pick up work.
enum class PlanAbortCause {
  kNone,          // committed
  kSliceRetired,  // a reserved slice id was retired by a repartition
  kSliceFailed,   // a reserved slice faulted between plan and commit
  kSliceConflict, // a reserved slice was bound by someone else meanwhile
  kVictimGone,    // an evict/drain victim already retired or failed
  kVictimBusy,    // an evict victim picked up work and is no longer idle
  kGpuNotIdle,    // a repartition target has bound slices
};

constexpr const char* Name(PlanAbortCause c) {
  switch (c) {
    case PlanAbortCause::kNone:
      return "none";
    case PlanAbortCause::kSliceRetired:
      return "slice-retired";
    case PlanAbortCause::kSliceFailed:
      return "slice-failed";
    case PlanAbortCause::kSliceConflict:
      return "slice-conflict";
    case PlanAbortCause::kVictimGone:
      return "victim-gone";
    case PlanAbortCause::kVictimBusy:
      return "victim-busy";
    case PlanAbortCause::kGpuNotIdle:
      return "gpu-not-idle";
  }
  return "?";
}

/// Number of PlanAbortCause values (for per-cause counter arrays).
inline constexpr int kNumPlanAbortCauses =
    static_cast<int>(PlanAbortCause::kGpuNotIdle) + 1;

/// A placement plan passed validation and was applied atomically.
struct PlacementCommitted {
  int actions = 0;    // total actions in the plan
  int spawns = 0;     // instances launched by the plan
  int pipelines = 0;  // of those, instances with more than one stage
  SimTime at = 0;
};

/// A placement plan failed validation; nothing was applied.
struct PlacementAborted {
  PlanAbortCause cause = PlanAbortCause::kNone;
  int actions = 0;
  SimTime at = 0;
};

// --- runtime repartitioning ------------------------------------------------

/// A GPU was repartitioned at runtime (Repartition baseline); `blackout`
/// is how long the fresh slices stay sentinel-bound.
struct PartitionReconfigured {
  GpuId gpu;
  SimTime at = 0;
  std::string partition;
  SimDuration blackout = 0;
};

// --- the closed list of event types ----------------------------------------

/// A list of types; `kHas<T>` says whether T is on it.
template <typename... E>
struct TypeList {
  template <typename T>
  static constexpr bool kHas = (std::is_same_v<T, E> || ...);
};

/// Every event type the EventBus carries, one entry each. A new event is a
/// struct above plus one entry here.
using Events = TypeList<
    RequestSubmitted, RequestPhaseAccrued, RequestCompleted,
    InstanceStateChanged, SliceBound, SliceReleased, SliceBusyBegin,
    SliceBusyEnd, SchedulerTransition, InstanceCrashRequested,
    SliceFailureRequested, ColdStartFailureArmed, SlowStartArmed,
    InstanceFailed, SliceFailed, SliceRepaired, RequestTimedOut,
    RequestRetried, RequestAbandoned, RequestRejected, PendingDepthChanged,
    PlacementCommitted, PlacementAborted, PartitionReconfigured>;

/// A type on the `Events` list.
template <typename E>
concept Event = Events::kHas<E>;

}  // namespace fluidfaas::sim
