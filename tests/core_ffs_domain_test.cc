// Behaviour shared by both FluidFaaS bundles: the cluster-scoped scheduler
// and FluidFaaS-dist, which runs the same FfsState domain once per node.
// Each scenario runs against both.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ffs_distributed.h"
#include "core/ffs_platform.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "sim/events.h"
#include "trace/workload.h"

namespace fluidfaas::core {
namespace {

using platform::FunctionSpec;
using platform::PlatformConfig;
using platform::PlatformCore;

/// A fresh FluidFaaS bundle plus a handle on the domain that schedules
/// node 0 (the whole cluster for FluidFaaS, node 0's invoker for -dist).
struct Scheduler {
  std::string name;
  platform::PolicyBundle bundle;
  std::function<FfsState&()> node0;
};

std::vector<Scheduler> BothSchedulers() {
  std::vector<Scheduler> out;
  auto central = std::make_shared<FfsState>();
  out.push_back({"FluidFaaS", MakeFluidFaasBundle(central),
                 [central]() -> FfsState& { return *central; }});
  auto dist = std::make_shared<DistState>();
  out.push_back({"FluidFaaS-dist", MakeDistributedBundle(dist),
                 [dist]() -> FfsState& {
                   return dist->invokers.front().domain;
                 }});
  return out;
}

/// `n` copies of the small image app; each fits a 1g.10gb slice alone.
std::vector<FunctionSpec> SmallFunctions(int n) {
  std::vector<FunctionSpec> fns;
  for (int i = 0; i < n; ++i) {
    fns.push_back(platform::MakeFunctionSpec(
        FunctionId(i), 0, model::Variant::kSmall,
        model::BuildApp(0, model::Variant::kSmall), 1.5));
  }
  return fns;
}

TEST(FfsDomainTest, CrashedTimeSharingInstanceIsReplaced) {
  for (Scheduler& s : BothSchedulers()) {
    SCOPED_TRACE(s.name);
    // One node with two 1g slices and three functions.
    sim::Simulator sim;
    auto cluster = gpu::Cluster::Uniform(
        1, 1, gpu::MigPartition::Parse("1g.10gb+1g.10gb"));
    metrics::Recorder recorder(cluster);
    PlatformCore plat(sim, cluster, SmallFunctions(3), PlatformConfig{},
                      std::move(s.bundle));
    recorder.SubscribeTo(sim.bus());
    plat.Start();

    // fn0 and then fn1 each end up with an idle resident TS instance, one
    // per slice.
    sim.At(0, [&plat] { plat.Submit(FunctionId(0)); });
    sim.At(Seconds(60), [&plat] { plat.Submit(FunctionId(1)); });
    sim.RunUntil(Seconds(80) + Millis(100));
    platform::Instance* crashed = s.node0().state(FunctionId(0)).ts;
    ASSERT_NE(crashed, nullptr);
    ASSERT_NE(s.node0().state(FunctionId(1)).ts, nullptr);

    // fn0's TS instance dies with its slice, between two ticks. fn2 must
    // evict fn1's live instance, not the crashed one (whose slice cannot
    // host anything); fn0 must get a fresh TS instance once the slice is
    // repaired.
    const SliceId slice = crashed->plan().stages.front().slice;
    plat.FailInstance(crashed, sim::FaultKind::kSliceFailure, slice,
                      Seconds(30));
    plat.Submit(FunctionId(2));
    plat.Submit(FunctionId(0));
    sim.RunUntil(Seconds(200));

    const FfsState::FnState& fn0 = s.node0().state(FunctionId(0));
    EXPECT_NE(fn0.ts, nullptr);
    EXPECT_NE(fn0.ts, crashed);
    EXPECT_EQ(recorder.completed_requests(), 4u);
    EXPECT_EQ(recorder.plans_aborted(), 0u);
  }
}

TEST(FfsDomainTest, CrashLeavesNoInstanceOutsideTheDomain) {
  for (Scheduler& s : BothSchedulers()) {
    SCOPED_TRACE(s.name);
    // One node with three 1g slices: after the crash two are free, so a
    // replacement the scheduler did not place would have room to land.
    sim::Simulator sim;
    auto cluster = gpu::Cluster::Uniform(
        1, 1, gpu::MigPartition::Parse("1g.10gb+1g.10gb+1g.10gb"));
    metrics::Recorder recorder(cluster);
    PlatformCore plat(sim, cluster, SmallFunctions(1), PlatformConfig{},
                      std::move(s.bundle));
    recorder.SubscribeTo(sim.bus());
    plat.Start();

    const FunctionId fn(0);
    // Every live instance of fn is one the domain tracks.
    auto expect_all_owned = [&] {
      const FfsState::FnState& st = s.node0().state(fn);
      for (platform::Instance* inst : plat.InstancesOf(fn)) {
        const bool owned = inst == st.ts || std::find(st.eh.begin(),
                                                      st.eh.end(),
                                                      inst) != st.eh.end();
        EXPECT_TRUE(owned) << "instance " << inst->id().value;
      }
    };

    plat.Submit(fn);
    sim.RunUntil(Millis(100));
    platform::Instance* crashed = s.node0().state(fn).ts;
    ASSERT_NE(crashed, nullptr);
    plat.FailInstance(crashed, sim::FaultKind::kInstanceCrash);
    expect_all_owned();

    // The retried request makes a fresh TS instance resident and completes.
    sim.RunUntil(Seconds(30));
    expect_all_owned();
    EXPECT_EQ(plat.InstancesOf(fn).size(), 1u);
    EXPECT_EQ(recorder.completed_requests(), 1u);
    EXPECT_EQ(recorder.retries_total(), 1u);
  }
}

TEST(FfsDomainTest, RecorderCountsMatchPublishedTransitions) {
  for (Scheduler& s : BothSchedulers()) {
    SCOPED_TRACE(s.name);
    sim::Simulator sim;
    auto cluster = gpu::Cluster::Uniform(2, 4, gpu::DefaultPartition());
    trace::WorkloadParams params;
    params.duration = Seconds(120);
    trace::Workload workload =
        trace::MakeWorkload(trace::WorkloadTier::kMedium, cluster, params);
    PlatformCore plat(sim, cluster, workload.functions, PlatformConfig{},
                      std::move(s.bundle));
    metrics::Recorder recorder(cluster);
    recorder.SubscribeTo(sim.bus());
    // An independent subscriber, indexed by sim::TransitionKind.
    std::array<std::size_t, sim::kNumTransitionKinds> seen{};
    auto sub = sim.bus().SubscribeScoped<sim::SchedulerTransition>(
        [&seen](const sim::SchedulerTransition& e) {
          ++seen[static_cast<std::size_t>(e.kind)];
        });
    plat.Start();
    for (const auto& inv : workload.trace) {
      sim.At(inv.time, [&plat, fn = inv.fn] { plat.Submit(fn); });
    }
    sim.RunUntil(params.duration + Minutes(2));
    plat.Stop();

    EXPECT_GT(recorder.transitions(sim::TransitionKind::kPromotion), 0u);
    for (int k = 0; k < sim::kNumTransitionKinds; ++k) {
      const auto kind = static_cast<sim::TransitionKind>(k);
      EXPECT_EQ(recorder.transitions(kind), seen[static_cast<std::size_t>(k)])
          << sim::Name(kind);
    }
  }
}

}  // namespace
}  // namespace fluidfaas::core
