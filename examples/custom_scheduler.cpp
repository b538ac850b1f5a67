// Extending the platform: write your own scheduler as a pair of policies —
// here, a deliberately naive random-placement policy — register it, and
// race it against FluidFaaS on the same trace. This is the template for
// experimenting with new scheduling ideas on the simulator.
//
// A scheduler is a platform::PolicyBundle: a RoutingPolicy (where does this
// request go?), a ScalingPolicy (what changes at each autoscale tick?), and
// optionally a KeepAlivePolicy. platform::PlatformCore supplies everything
// else — instances, loading, warm tracking, the pending set — and publishes
// every observable step on the simulator's EventBus, where the
// metrics::Recorder picks it up.
//
//   $ ./custom_scheduler
#include <iostream>
#include <memory>

#include "common/rng.h"
#include "core/ffs_platform.h"
#include "core/pipeline.h"
#include "metrics/recorder.h"
#include "metrics/report.h"
#include "model/zoo.h"
#include "platform/placement.h"
#include "platform/registry.h"
#include "trace/workload.h"

using namespace fluidfaas;

namespace {

/// A strawman router: place every new instance on a *random* free slice
/// that fits (monolithic only), route requests to a random instance that
/// admits them within their SLO bound.
class RandomRouting final : public platform::RoutingPolicy {
 public:
  RandomRouting() : rng_(7) {}

  bool Route(platform::PlatformCore& core, RequestId rid,
             FunctionId fn) override {
    auto insts = core.InstancesOf(fn);
    std::erase_if(insts, [](platform::Instance* i) { return !i->CanAdmit(); });
    if (insts.empty()) {
      auto free = gpu::ClusterView(core.cluster()).FreeSlices();
      std::erase_if(free, [&](SliceId sid) {
        return core.cluster().slice(sid).memory() <
               core.function(fn).total_memory;
      });
      if (free.empty()) return false;
      const SliceId pick = free[static_cast<std::size_t>(rng_.UniformInt(
          0, static_cast<std::int64_t>(free.size()) - 1))];
      auto plan = core::MonolithicPlanOnSlice(core.function(fn).dag,
                                              core.cluster(), pick);
      const platform::CommitResult result = core.Commit(
          platform::SpawnPlan(fn, std::move(*plan), core.IsWarm(fn)));
      if (!result.ok()) return false;
      insts.push_back(result.spawned.front());
    }
    // Draw only among the instances that take the request within its SLO
    // bound: a refusal then depends on platform state, not on the
    // generator (the RoutingPolicy::Route contract).
    const SimTime now = core.simulator().Now();
    std::erase_if(insts, [&](platform::Instance* i) {
      return !i->AdmitWithinBound(now, core.DeadlineOf(rid),
                                  core.function(fn).slo);
    });
    if (insts.empty()) return false;
    auto* inst = insts[static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(insts.size()) - 1))];
    inst->Enqueue(rid, core.JitterOf(rid));
    return true;
  }

 private:
  Rng rng_;
};

/// Never scales: whatever RandomRouting launched is all there is.
class NoScaling final : public platform::ScalingPolicy {
 public:
  void Tick(platform::PlatformCore&) override {}
};

}  // namespace

int main() {
  std::cout << "Racing a custom scheduler against FluidFaaS on one trace\n\n";

  // Register the custom bundle next to the built-ins, exactly the way the
  // harness resolves schedulers.
  core::RegisterFluidFaasSchedulers();
  platform::RegisterScheduler("RandomScheduler", [] {
    platform::PolicyBundle b;
    b.routing = std::make_unique<RandomRouting>();
    b.scaling = std::make_unique<NoScaling>();
    return b;
  });

  metrics::Table table(
      {"scheduler", "completed", "SLO hit", "mean queue (ms)"});

  for (const char* name : {"RandomScheduler", "FluidFaaS"}) {
    sim::Simulator sim;
    auto cluster = gpu::Cluster::Uniform(1, 4, gpu::DefaultPartition());
    metrics::Recorder recorder(cluster);
    recorder.SubscribeTo(sim.bus());
    trace::WorkloadParams wp;
    wp.duration = Seconds(90);
    wp.load_factor = 0.3;
    trace::Workload workload =
        trace::MakeWorkload(trace::WorkloadTier::kLight, cluster, wp);

    platform::PlatformCore plat(sim, cluster, workload.functions,
                                platform::PlatformConfig{},
                                platform::MakeSchedulerBundle(name));
    plat.Start();
    for (const auto& inv : workload.trace) {
      sim.At(inv.time, [&plat, fn = inv.fn] { plat.Submit(fn); });
    }
    sim.RunUntil(Seconds(90) + Minutes(5));
    plat.Stop();
    recorder.Close(sim.Now());

    const auto bd = recorder.MeanBreakdown();
    table.AddRow({plat.name(),
                  std::to_string(recorder.completed_requests()) + "/" +
                      std::to_string(recorder.total_requests()),
                  metrics::FmtPercent(recorder.SloHitRate()),
                  metrics::Fmt(bd.queue / 1000.0, 1)});
  }
  table.Print();
  std::cout << "\nplatform::PlatformCore supplies instances, loading, warm\n"
               "tracking and event publication; a scheduler is just a\n"
               "RoutingPolicy + ScalingPolicy bundle in the registry. See\n"
               "src/core/ffs_platform.cpp for the full FluidFaaS policy.\n";
  return 0;
}
