#include "baselines/repartition_platform.h"

#include <algorithm>
#include <utility>

#include "core/pipeline.h"
#include "platform/placement.h"
#include "sim/events.h"

namespace fluidfaas::baselines {

using platform::Instance;

namespace {

/// Sentinel occupant that blocks a GPU's slices during reconfiguration.
InstanceId ReconfigSentinel(GpuId gpu) {
  return InstanceId(1'000'000 + gpu.value);
}

}  // namespace

gpu::MigPartition BestRepartitionFor(Bytes needed_memory) {
  const auto& all = gpu::EnumerateMaximalPartitions();
  const gpu::MigPartition* best = nullptr;
  int best_fits = -1;
  int best_gpcs = -1;
  for (const gpu::MigPartition& p : all) {
    int fits = 0;
    for (const gpu::Placement& pl : p.placements()) {
      if (gpu::MemBytes(pl.profile) >= needed_memory) ++fits;
    }
    if (fits > best_fits ||
        (fits == best_fits && p.total_gpcs() > best_gpcs)) {
      best = &p;
      best_fits = fits;
      best_gpcs = p.total_gpcs();
    }
  }
  FFS_CHECK(best != nullptr);
  return *best;
}

void RepartitionState::ExecuteReconfig(platform::PlatformCore& core,
                                       GpuId gpu_id, Bytes needed_memory) {
  const gpu::MigPartition target = BestRepartitionFor(needed_memory);
  const InstanceId sentinel = ReconfigSentinel(gpu_id);
  // The whole swap — retire the old slice ids, mint the new layout, and
  // sentinel-bind the fresh slices for the blackout — is one transaction;
  // Commit aborts it with kGpuNotIdle if anything landed on the GPU since
  // the caller saw it idle.
  platform::PlacementPlan txn;
  txn.actions.emplace_back(std::in_place_type<platform::RepartitionAction>,
                           gpu_id, target, kReconfigBlackout, sentinel);
  const platform::CommitResult result = core.Commit(txn);
  if (!result.ok()) return;  // GPU no longer idle; a later tick retries
  reconfiguring.insert(gpu_id.value);
  core.simulator().After(
      kReconfigBlackout, [&core, self = shared_from_this(), gpu_id,
                          fresh = result.fresh_slices, sentinel] {
        core.FinishRepartition(fresh, sentinel);
        self->reconfiguring.erase(gpu_id.value);
        core.DispatchPending();
      });
}

bool RepartitionState::TryReconfigure(platform::PlatformCore& core,
                                      const platform::FunctionSpec& spec) {
  const gpu::MigPartition target = BestRepartitionFor(spec.total_memory);

  // Preferred path: a fully idle GPU swaps immediately.
  for (const gpu::Gpu& g : core.cluster().gpus()) {
    if (reconfiguring.count(g.id().value)) continue;
    if (!g.AllSlicesFree()) continue;
    if (target.Profiles() == g.partition().Profiles()) continue;
    ExecuteReconfig(core, g.id(), spec.total_memory);
    return true;
  }

  // Otherwise drain one busy GPU and reconfigure it once it empties —
  // sacrificing its current capacity on top of the blackout to come.
  if (drain_targets.size() + reconfiguring.size() >= 2) return false;
  for (const gpu::Gpu& g : core.cluster().gpus()) {
    if (reconfiguring.count(g.id().value)) continue;
    if (target.Profiles() == g.partition().Profiles()) continue;
    bool already_target = false;
    for (const DrainTarget& t : drain_targets) {
      if (t.gpu == g.id()) already_target = true;
    }
    if (already_target) continue;

    for (const platform::FunctionSpec& fn : core.functions()) {
      // A copy: DrainOrRetire may remove from the live list.
      const std::vector<Instance*> live = core.InstancesOf(fn.id).items();
      for (Instance* inst : live) {
        bool on_gpu = false;
        for (const core::StageBinding& b : inst->plan().stages) {
          if (core.cluster().slice(b.slice).gpu == g.id()) on_gpu = true;
        }
        if (on_gpu) core.DrainOrRetire(inst);
      }
    }
    drain_targets.push_back(DrainTarget{g.id(), spec.total_memory});
    return true;
  }
  return false;
}

bool RepartitionRouting::Route(platform::PlatformCore& core, RequestId rid,
                               FunctionId fn) {
  // As in ESG: the due decides only AdmitBounded's answer.
  if (core.InstancesOf(fn).empty() &&
      platform::LaunchMonolithic(core, core.function(fn)) == nullptr) {
    core.RefuseThrough(platform::kRefuseAll);
    return false;  // tick may reconfigure
  }
  return platform::AdmitBounded(
      core, core.InstancesOf(fn).LeastLoaded(core.simulator().Now()), rid);
}

void RepartitionScaling::Tick(platform::PlatformCore& core) {
  // Retire drained instances, then execute reconfigurations whose GPU has
  // finally emptied.
  platform::RetireDrainedIdle(core);
  for (auto it = st_->drain_targets.begin();
       it != st_->drain_targets.end();) {
    const gpu::Gpu& g = core.cluster().gpu(it->gpu);
    if (g.AllSlicesFree()) {
      st_->ExecuteReconfig(core, it->gpu, it->needed_memory);
      it = st_->drain_targets.erase(it);
    } else {
      ++it;
    }
  }

  for (const platform::FunctionSpec& spec : core.functions()) {
    const bool grown = platform::GrowCapacity(
        core.ArrivalRate(spec.id),
        platform::AdmittingCapacity(core.InstancesOf(spec.id)),
        [&] { return platform::LaunchMonolithic(core, spec); });
    // Fragmented out: try to right the partition mix instead.
    if (!grown) st_->TryReconfigure(core, spec);
  }
  // Exclusive keep-alive runs as the bundle's FixedIdleKeepAlive right after.
}

platform::PolicyBundle MakeRepartitionBundle() {
  auto state = std::make_shared<RepartitionState>();
  platform::PolicyBundle bundle;
  bundle.routing = std::make_unique<RepartitionRouting>(state);
  bundle.scaling = std::make_unique<RepartitionScaling>(state);
  bundle.keepalive = std::make_unique<platform::FixedIdleKeepAlive>();
  return bundle;
}

}  // namespace fluidfaas::baselines
