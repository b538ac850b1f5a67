#include "baselines/esg_platform.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/esg_search.h"
#include "core/pipeline.h"
#include "gpu/cluster_view.h"
#include "platform/placement.h"

namespace fluidfaas::baselines {

using platform::InstanceState;

namespace {

/// Free-slice counts per profile, cluster-wide.
std::vector<int> FreeCounts(const platform::PlatformCore& core) {
  std::vector<int> counts(gpu::kAllProfiles.size(), 0);
  for (SliceId sid : core.cluster().AllSlices()) {
    const gpu::MigSlice& s = core.cluster().slice(sid);
    if (s.allocatable()) counts[static_cast<std::size_t>(s.profile())] += 1;
  }
  return counts;
}

/// Launch monolithic instances per the A* result; returns #launched.
int ScaleUp(platform::PlatformCore& core, const platform::FunctionSpec& spec,
            double demand_rps) {
  auto result = EsgSearch(spec.dag, FreeCounts(core), spec.slo, demand_rps);
  if (!result) {
    // Even the full free inventory cannot cover the demand; deploy the
    // single cheapest feasible instance as best effort.
    auto options = MakeSliceOptions(spec.dag, FreeCounts(core), spec.slo);
    if (options.empty()) return 0;
    auto best = std::min_element(
        options.begin(), options.end(),
        [](const SliceOption& a, const SliceOption& b) {
          return gpu::Gpcs(a.profile) < gpu::Gpcs(b.profile);
        });
    EsgSearchResult fallback;
    fallback.chosen.push_back(best->profile);
    result = fallback;
  }
  // One transaction for the whole deployment: each AddSpawn reserves its
  // slice in the shared view, so later profiles in `chosen` plan against
  // what this very scale-up already claimed — no post-hoc "raced with
  // another function" re-check needed.
  gpu::ClusterView view(core.cluster());
  platform::PlacementPlan txn;
  for (gpu::MigProfile p : result->chosen) {
    const auto free = view.FreeSlices(p);
    if (free.empty()) continue;  // inventory exhausted by earlier spawns
    auto plan = core::MonolithicPlanOnSlice(spec.dag, view, free.front());
    if (!plan) continue;
    platform::AddSpawn(txn, view, spec.id, std::move(*plan),
                       core.IsWarm(spec.id));
  }
  if (txn.empty()) return 0;
  const platform::CommitResult result_commit = core.Commit(txn);
  return result_commit.ok() ? txn.NumSpawns() : 0;
}

}  // namespace

bool EsgRouting::Route(platform::PlatformCore& core, RequestId rid,
                       FunctionId fn) {
  // Cold path: synchronous scale-up for the first request. Neither it nor
  // the least-loaded pick reads the due, so a refusal reaches as far as
  // AdmitBounded's, and a failed scale-up refuses every due.
  if (core.InstancesOf(fn).empty() &&
      ScaleUp(core, core.function(fn), core.ArrivalRate(fn)) == 0) {
    core.RefuseThrough(platform::kRefuseAll);
    return false;
  }
  return platform::AdmitBounded(
      core, core.InstancesOf(fn).LeastLoaded(core.simulator().Now()), rid);
}

void EsgScaling::Tick(platform::PlatformCore& core) {
  for (const platform::FunctionSpec& spec : core.functions()) {
    const double rate = core.ArrivalRate(spec.id);
    const double capacity =
        platform::AdmittingCapacity(core.InstancesOf(spec.id));
    if (rate > platform::kScaleupLoadFactor * capacity) {
      const double deficit =
          rate / platform::kScaleupLoadFactor - capacity;
      ScaleUp(core, spec, deficit);
    }
  }
  // Exclusive keep-alive (idle instances hold their slices for the window)
  // is the bundle's FixedIdleKeepAlive policy, which runs right after this.
}

bool InflessRouting::Route(platform::PlatformCore& core, RequestId rid,
                           FunctionId fn) {
  if (core.InstancesOf(fn).empty() &&
      platform::LaunchMonolithic(core, core.function(fn)) == nullptr) {
    core.RefuseThrough(platform::kRefuseAll);
    return false;
  }

  // Least outstanding work, no SLO-awareness in the pick: a refusal reaches
  // as far as AdmitBounded's.
  return platform::AdmitBounded(core, core.InstancesOf(fn).LeastOutstanding(),
                                rid);
}

void InflessScaling::Tick(platform::PlatformCore& core) {
  for (const platform::FunctionSpec& spec : core.functions()) {
    platform::GrowCapacity(
        core.ArrivalRate(spec.id),
        platform::AdmittingCapacity(core.InstancesOf(spec.id)),
        [&] { return platform::LaunchMonolithic(core, spec); });
  }
}

platform::PolicyBundle MakeEsgBundle() {
  platform::PolicyBundle bundle;
  bundle.routing = std::make_unique<EsgRouting>();
  bundle.scaling = std::make_unique<EsgScaling>();
  bundle.keepalive = std::make_unique<platform::FixedIdleKeepAlive>();
  return bundle;
}

platform::PolicyBundle MakeInflessBundle() {
  platform::PolicyBundle bundle;
  bundle.routing = std::make_unique<InflessRouting>();
  bundle.scaling = std::make_unique<InflessScaling>();
  bundle.keepalive = std::make_unique<platform::FixedIdleKeepAlive>();
  return bundle;
}

}  // namespace fluidfaas::baselines
