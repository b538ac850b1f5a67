#include "core/ffs_platform.h"

#include <utility>

#include "common/error.h"
#include "core/ffs_distributed.h"
#include "core/pipeline.h"
#include "sim/events.h"

namespace fluidfaas::core {

using platform::Instance;
using platform::InstanceState;

FfsState::FnState& FfsState::state(FunctionId fn) {
  FFS_CHECK(fn.valid() &&
            static_cast<std::size_t>(fn.value) < fn_state.size());
  return fn_state[static_cast<std::size_t>(fn.value)];
}

const FfsState::FnState& FfsState::state(FunctionId fn) const {
  return const_cast<FfsState*>(this)->state(fn);
}

void FfsState::EnsureSized(const platform::PlatformCore& core) {
  if (fn_state.size() < core.functions().size()) {
    fn_state.resize(core.functions().size());
  }
}

platform::Instance* FfsState::EnsureTsResident(platform::PlatformCore& core,
                                               FunctionId fn) {
  FnState& st = state(fn);
  FFS_CHECK(st.ts == nullptr);
  const platform::FunctionSpec& spec = core.function(fn);

  // Plan on a view, commit atomically: the eviction (when needed) and the
  // spawn onto the freed slice are one placement transaction.
  gpu::ClusterView view(core.cluster());
  platform::PlacementPlan txn;
  auto sid = view.SmallestFreeSliceWithMemory(spec.total_memory, node_);
  SimDuration evict_cost = 0;
  FunctionId victim_fn;
  InstanceId victim_iid;

  if (!sid) {
    // Evict the least-recently-used idle resident time-sharing instance of
    // another function whose slice is large enough (§5.3). A crashed one
    // not yet pruned has no slice left to free.
    SimTime oldest = kTimeInfinity;
    for (std::size_t i = 0; i < fn_state.size(); ++i) {
      FnState& other = fn_state[i];
      if (other.ts == nullptr || other.ts->Gone() || !other.ts->Idle()) {
        continue;
      }
      if (FunctionId(static_cast<std::int32_t>(i)) == fn) continue;
      const core::StageBinding& b = other.ts->plan().stages.front();
      if (core.cluster().slice(b.slice).memory() < spec.total_memory) continue;
      if (other.ts->last_used() < oldest) {
        oldest = other.ts->last_used();
        victim_fn = FunctionId(static_cast<std::int32_t>(i));
      }
    }
    if (!victim_fn.valid()) return nullptr;

    FnState& vic = state(victim_fn);
    const SliceId freed = vic.ts->plan().stages.front().slice;
    victim_iid = vic.ts->id();
    evict_cost = model::Evict(vic.ts->plan().TotalWeights());
    platform::AddEvict(txn, view, victim_iid, vic.ts->plan());
    sid = freed;
  }

  auto plan = MonolithicPlanOnSlice(spec.dag, view, *sid);
  if (!plan) return nullptr;  // cannot happen given the memory checks
  platform::AddSpawn(txn, view, fn, std::move(*plan), core.IsWarm(fn),
                     evict_cost);
  const platform::CommitResult result = core.Commit(txn);
  if (!result.ok()) return nullptr;

  if (victim_fn.valid()) {
    state(victim_fn).ts = nullptr;  // entry stays warm (TouchWarm in retire)
    core.bus().Publish(sim::SchedulerTransition{sim::TransitionKind::kEviction,
                                                victim_fn, victim_iid,
                                                core.simulator().Now()});
  }
  Instance* inst = result.spawned.front();
  st.ts = inst;
  st.has_ts = true;
  st.ts_last_used = core.simulator().Now();
  return inst;
}

platform::Instance* FfsState::LaunchExclusive(
    platform::PlatformCore& core, const platform::FunctionSpec& spec) {
  Instance* inst = nullptr;
  if (!core.config().enable_pipelines) {
    inst = platform::LaunchMonolithic(core, spec, node_);  // ablation
  } else if (auto plan = PlanFirstFeasible(spec.dag, spec.ranked_pipelines,
                                           core.cluster(), node_)) {
    const platform::CommitResult result = core.Commit(
        platform::SpawnPlan(spec.id, std::move(*plan), core.IsWarm(spec.id)));
    if (result.ok()) inst = result.spawned.front();
  }
  if (inst == nullptr) return nullptr;
  state(spec.id).eh.push_back(inst);
  return inst;
}

bool FfsState::Route(platform::PlatformCore& core, RequestId rid,
                     FunctionId fn) {
  FnState& st = state(fn);
  const platform::FunctionSpec& spec = core.function(fn);
  const SimTime now = core.simulator().Now();
  const SimTime deadline = core.DeadlineOf(rid);

  // 1. Exclusive-hot instances, lowest service latency first, while their
  //    backlog still meets the deadline (§5.3 request routing): the fit is
  //    the minimum (ServiceLatency, id) over the admitting instances that
  //    meet it. Ids are unique, so the order is total. The same pass keeps
  //    step 3's least-loaded instance, the first of equal estimates in `eh`
  //    order, as platform::LeastLoaded would pick it.
  Instance* fit = nullptr;
  Instance* least = nullptr;
  SimTime least_est = kTimeInfinity;
  bool no_hot = true;
  PruneDead(st, [&](Instance* inst) {
    if (!inst->CanAdmit()) return;
    no_hot = false;
    const SimTime est = inst->EstimateCompletion(now);
    if (est < least_est) {
      least_est = est;
      least = inst;
    }
    if (est > deadline) return;
    if (fit == nullptr ||
        std::pair(inst->ServiceLatency(), inst->id()) <
            std::pair(fit->ServiceLatency(), fit->id())) {
      fit = inst;
    }
  });
  if (fit != nullptr) {
    fit->Enqueue(rid, core.JitterOf(rid), deadline);
    st.ts_last_used = now;
    return true;
  }

  // 2. The time-sharing instance (§5.3: "the remaining requests are routed
  //    to the time sharing state instance").
  if (core.config().enable_time_sharing) {
    if (st.ts != nullptr && st.ts->CanAdmit()) {
      if (st.ts->EstimateCompletion(now) <= deadline || no_hot) {
        st.ts->Enqueue(rid, core.JitterOf(rid), deadline);
        st.ts_last_used = now;
        return true;
      }
    } else if (st.ts == nullptr) {
      Instance* inst = EnsureTsResident(core, fn);
      if (inst != nullptr) {
        inst->Enqueue(rid, core.JitterOf(rid), deadline);
        st.ts_last_used = now;
        return true;
      }
    }
  } else if (no_hot) {
    // Ablation path without time sharing: first request must still create
    // an instance; use an exclusive one.
    Instance* inst = LaunchExclusive(core, spec);
    if (inst != nullptr) {
      inst->Enqueue(rid, core.JitterOf(rid), deadline);
      return true;
    }
  }

  // 3. Fallback: the least-loaded admitting instance, the time-sharing one
  //    only when strictly earlier (request will likely miss its SLO, but
  //    progress beats starvation). The bounded admit keeps overload in the
  //    EDF-ordered pending set instead of FIFO instance queues.
  //    Every refusal ends here, so its reach is AdmitBounded's: AdmitsFrom
  //    lies below `best`'s estimate, which no step 1 or step 2 estimate
  //    undercuts, so a request due below it passes those steps too, and
  //    EnsureTsResident and LaunchExclusive do not read the due.
  //    Step 1's scan still holds: a step 2 that fails leaves `eh` as it
  //    was (Commit is atomic, and an eviction victim is another function's
  //    time-sharing instance), and one that places returns.
  Instance* best = least;
  if (st.ts != nullptr && st.ts->CanAdmit() &&
      (best == nullptr || st.ts->EstimateCompletion(now) < least_est)) {
    best = st.ts;
  }
  if (!platform::AdmitBounded(core, best, rid)) return false;
  st.ts_last_used = now;
  return true;
}

void FfsState::Promote(platform::PlatformCore& core, FunctionId fn) {
  // The resident instance changes *state*, not placement: it already has
  // the slice to itself, promotion just makes it non-evictable.
  FnState& st = state(fn);
  if (st.ts == nullptr) return;
  const double util = core.UtilizationOf(st.ts);
  if (util <= platform::kHotThreshold) return;
  const InstanceId iid = st.ts->id();
  st.eh.push_back(st.ts);
  st.ts = nullptr;
  st.has_ts = false;
  core.bus().Publish(sim::SchedulerTransition{
      sim::TransitionKind::kPromotion, fn, iid, core.simulator().Now()});
}

void FfsState::ScaleUp(platform::PlatformCore& core,
                       const platform::FunctionSpec& spec, double rate) {
  platform::GrowCapacity(rate, platform::AdmittingCapacity(state(spec.id).eh),
                         [&] { return LaunchExclusive(core, spec); });
}

void FfsState::ScaleDown(platform::PlatformCore& core, FunctionId fn) {
  FnState& st = state(fn);
  const SimTime now = core.simulator().Now();
  // Consider only Ready+idle instances that have been quiet for a window.
  for (Instance* inst : std::vector<Instance*>(st.eh)) {
    if (inst->state() != InstanceState::kReady || !inst->Idle()) continue;
    if (now - inst->last_used() < platform::kUtilWindow) continue;
    const double util = core.UtilizationOf(inst);
    if (util >= platform::kHotThreshold) continue;
    if (core.config().enable_time_sharing && !st.has_ts &&
        st.eh.size() == 1) {
      // Demote the last exclusive instance into the time-sharing state:
      // it keeps serving from its slice but becomes evictable. Pipelined
      // instances cannot be time-shared; retire them to warm instead.
      std::erase(st.eh, inst);
      if (!inst->IsPipelined()) {
        st.ts = inst;
        st.has_ts = true;
        st.ts_last_used = inst->last_used();
      } else {
        core.RetireInstance(inst);
        st.has_ts = true;  // warm entry, resident on next request
        st.ts = nullptr;
        st.ts_last_used = inst->last_used();
      }
      core.bus().Publish(sim::SchedulerTransition{
          sim::TransitionKind::kDemotion, fn, inst->id(), now});
    } else if (st.eh.size() > 1 ||
               (core.config().enable_time_sharing && st.has_ts)) {
      // Surplus exclusive capacity: the remaining instances (or the
      // time-sharing entry) cover the residual load; release the slices.
      std::erase(st.eh, inst);
      core.RetireInstance(inst);
    } else if (!core.config().enable_time_sharing &&
               now - inst->last_used() >= core.config().exclusive_keepalive) {
      std::erase(st.eh, inst);
      core.RetireInstance(inst);
    }
  }
}

void FfsState::ExpireCold(platform::PlatformCore& core, FunctionId fn) {
  FnState& st = state(fn);
  const SimTime now = core.simulator().Now();
  if (!st.has_ts || now - st.ts_last_used <= platform::kWarmTimeout) {
    return;
  }
  if (st.ts != nullptr && st.ts->Idle()) {
    core.RetireInstance(st.ts);
    st.ts = nullptr;
  }
  if (st.ts == nullptr) {
    st.has_ts = false;
    core.bus().Publish(sim::SchedulerTransition{
        sim::TransitionKind::kColdDrop, fn, InstanceId(), now});
  }
}

void FfsRouting::Attach(platform::PlatformCore& core) {
  st_->EnsureSized(core);
}

bool FfsRouting::Route(platform::PlatformCore& core, RequestId rid,
                       FunctionId fn) {
  return st_->Route(core, rid, fn);
}

void FfsScaling::Attach(platform::PlatformCore& core) {
  st_->EnsureSized(core);
}

void FfsScaling::OnCompleted(platform::PlatformCore& core, RequestId,
                             FunctionId fn) {
  FfsState::FnState& st = st_->state(fn);
  st.ts_last_used = core.simulator().Now();
  platform::RetireDrainedIdle(core);
}

void FfsScaling::Tick(platform::PlatformCore& core) {
  const SimTime now = core.simulator().Now();
  platform::RetireDrainedIdle(core);

  for (std::size_t i = 0; i < st_->fn_state.size(); ++i) {
    const FunctionId fn(static_cast<std::int32_t>(i));
    FfsState::FnState& st = st_->state(fn);
    st_->PruneDead(st);
    const platform::FunctionSpec& spec = core.function(fn);

    // --- promotion (Fig. 8 ②) and scale-up ------------------------------
    st_->Promote(core, fn);
    st_->ScaleUp(core, spec, core.ArrivalRate(fn));

    st_->ScaleDown(core, fn);
    st_->ExpireCold(core, fn);

    // --- pipeline migration (§5.3) ---------------------------------------
    // Cooldown one utilization window per function so a drained pipeline's
    // freed slices are not immediately rebuilt into a new pipeline and
    // migrated again.
    if (core.config().enable_migration &&
        now - st.last_migration >= platform::kUtilWindow) {
      for (Instance* inst : std::vector<Instance*>(st.eh)) {
        if (!inst->IsPipelined() ||
            inst->state() != InstanceState::kReady) {
          continue;
        }
        auto plan = MonolithicPlanOnSmallestSlice(spec.dag, core.cluster(),
                                                  st_->node());
        if (!plan) break;
        // One transaction: spawn the monolithic replacement, then drain the
        // pipeline it supersedes (warm status fixed at plan time, before the
        // drain's retire path can refresh it).
        platform::PlacementPlan txn =
            platform::SpawnPlan(fn, std::move(*plan), core.IsWarm(fn));
        txn.actions.emplace_back(std::in_place_type<platform::DrainAction>,
                                 inst->id());
        const platform::CommitResult result = core.Commit(txn);
        if (!result.ok()) break;
        st.eh.push_back(result.spawned.front());
        std::erase(st.eh, inst);
        core.bus().Publish(sim::SchedulerTransition{
            sim::TransitionKind::kMigration, fn, inst->id(), now});
        st.last_migration = now;
        break;  // at most one migration per function per tick
      }
    }
  }
}

platform::PolicyBundle MakeFluidFaasBundle(std::shared_ptr<FfsState> state) {
  if (!state) state = std::make_shared<FfsState>();
  platform::PolicyBundle bundle;
  bundle.routing = std::make_unique<FfsRouting>(state);
  bundle.scaling = std::make_unique<FfsScaling>(state);
  return bundle;
}

}  // namespace fluidfaas::core
