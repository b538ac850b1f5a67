// The FluidFaaS scheduler: dynamic pipeline construction on fragmented MIG
// slices (§5.2) plus hotness-aware eviction-based time sharing (§5.3),
// expressed as a routing + scaling policy pair over platform::PlatformCore.
//
// Instance states follow Fig. 8:
//   * The first request for a function creates a TIME-SHARING instance (①).
//   * Utilization above the hot threshold promotes it to EXCLUSIVE-HOT —
//     deployed through the CV-ranked pipeline planner, so a promotion can
//     land on fragmented slices as a pipeline (②).
//   * Falling utilization demotes back to time sharing (③).
//   * A time-sharing instance may be evicted to CPU memory = WARM (④), and
//     is terminated after ten idle minutes = COLD (⑤).
//
// Exclusive-hot instances are never evicted; all pipeline instances are
// exclusive-hot (paper: "to simplify scheduling"). At most one time-sharing
// instance exists per function; time-sharing instances are monolithic and
// share slices through LRU eviction.
//
// Request routing is heterogeneity-aware (§5.3): pending requests are
// ordered by adjusted deadline; exclusive-hot instances are tried lowest
// latency first up to capacity, then the time-sharing instance, then the
// least-loaded fallback.
//
// All of that runs inside one FfsState — a scheduling domain holding the
// Fig. 8 bookkeeping over a scope of nodes. FluidFaaS runs one domain over
// the whole cluster; FluidFaaS-dist (core/ffs_distributed.h) runs the same
// domain once per node, as §5.2.2's invoker-local scheduler. Each Fig. 8
// transition is published as sim::SchedulerTransition on the core's
// EventBus; metrics::Recorder counts the transitions, and the pipelines
// launched, from the bus. FluidFaaS needs no keep-alive policy — instance
// lifetime is entirely governed by the state machine above.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "platform/platform.h"
#include "platform/policy.h"

namespace fluidfaas::core {

/// A FluidFaaS scheduling domain: the Fig. 8 bookkeeping of every function
/// over a scope of nodes, and the only implementation of the §5.3 moves
/// made inside it. The routing and scaling policies share a domain through
/// shared_ptr, which is also how callers keep it for introspection.
class FfsState {
 public:
  struct FnState {
    platform::LoadIndex eh;               // exclusive-hot instances
    bool has_ts = false;                  // a time-sharing entry exists
    platform::Instance* ts = nullptr;     // resident TS instance (or null)
    SimTime ts_last_used = 0;
    SimTime last_migration = 0;
  };

  /// A domain over the whole cluster.
  FfsState() = default;
  /// A domain confined to one node: it plans, places and evicts only there.
  explicit FfsState(NodeId node) : node_(node) {}

  /// The domain's node, or nullopt for the whole cluster.
  std::optional<NodeId> node() const { return node_; }

  FnState& state(FunctionId fn);
  const FnState& state(FunctionId fn) const;
  void EnsureSized(const platform::PlatformCore& core);

  /// §5.3 request routing: exclusive-hot instances lowest latency first
  /// while they meet the deadline, then the time-sharing instance, then the
  /// bounded least-loaded fallback. True when `rid` was enqueued. `eh`'s
  /// load index answers both step 1's fit, the minimum (ServiceLatency, id)
  /// among the admitting instances that meet the deadline, and the
  /// fallback's least-loaded instance: no scan, no allocation. A refusal
  /// reports its reach (PlatformCore::RefuseThrough).
  bool Route(platform::PlatformCore& core, RequestId rid, FunctionId fn);

  /// Make fn's time-sharing instance resident: smallest free slice in the
  /// scope if available, otherwise evict the domain's LRU idle resident TS
  /// instance whose slice fits. Returns the (loading) instance or nullptr.
  platform::Instance* EnsureTsResident(platform::PlatformCore& core,
                                       FunctionId fn);

  /// Launch a new exclusive-hot instance via the ranked pipeline planner.
  platform::Instance* LaunchExclusive(platform::PlatformCore& core,
                                      const platform::FunctionSpec& spec);

  /// Fig. 8 ②: promote fn's resident TS instance to exclusive-hot once its
  /// smoothed utilization passes the hot threshold.
  void Promote(platform::PlatformCore& core, FunctionId fn);

  /// Add exclusive-hot capacity while `rate` (requests/s) exceeds
  /// kScaleupLoadFactor × the admitting capacity; at most 8 launches.
  void ScaleUp(platform::PlatformCore& core,
               const platform::FunctionSpec& spec, double rate);

  /// Fig. 8 ③: demote fn's last idle, cooled exclusive-hot instance to
  /// time sharing (a pipelined one is retired to a warm entry) and retire
  /// surplus idle exclusive-hot instances.
  void ScaleDown(platform::PlatformCore& core, FunctionId fn);

  /// Fig. 8 ⑤: drop fn's time-sharing entry once it has gone unused for
  /// platform::kWarmTimeout, retiring its resident instance if idle.
  void ExpireCold(platform::PlatformCore& core, FunctionId fn);

  /// Drop retired, failed and draining instances from `st.eh`, keeping the
  /// order of the rest (free when there are none), and a crashed
  /// time-sharing instance.
  static void PruneDead(FnState& st) {
    st.eh.EraseNonAdmitting();
    // A crashed TS instance leaves a warm entry behind (has_ts stays set),
    // so the next request makes a fresh one resident.
    if (st.ts != nullptr && st.ts->Gone()) st.ts = nullptr;
  }

  std::vector<FnState> fn_state;

 private:
  std::optional<NodeId> node_;
};

class FfsRouting final : public platform::RoutingPolicy {
 public:
  explicit FfsRouting(std::shared_ptr<FfsState> st) : st_(std::move(st)) {}
  void Attach(platform::PlatformCore& core) override;
  bool Route(platform::PlatformCore& core, RequestId rid,
             FunctionId fn) override;

 private:
  std::shared_ptr<FfsState> st_;
};

class FfsScaling final : public platform::ScalingPolicy {
 public:
  explicit FfsScaling(std::shared_ptr<FfsState> st) : st_(std::move(st)) {}
  void Attach(platform::PlatformCore& core) override;
  void Tick(platform::PlatformCore& core) override;
  void OnCompleted(platform::PlatformCore& core, RequestId rid,
                   FunctionId fn) override;

 private:
  std::shared_ptr<FfsState> st_;
};

/// The FluidFaaS policy bundle. Pass a state to share it with the caller
/// (introspection); defaults to a fresh one.
platform::PolicyBundle MakeFluidFaasBundle(
    std::shared_ptr<FfsState> state = nullptr);

}  // namespace fluidfaas::core
