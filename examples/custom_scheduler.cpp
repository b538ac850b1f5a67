// Extending the platform: write your own scheduler as a pair of policies —
// here, a deliberately naive random-placement policy — and race it against
// FluidFaaS on the same trace. This is the template for
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
#include <utility>

#include "common/rng.h"
#include "core/ffs_platform.h"
#include "core/pipeline.h"
#include "harness/run_context.h"
#include "metrics/report.h"
#include "platform/placement.h"

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

platform::PolicyBundle RandomBundle() {
  platform::PolicyBundle b;
  b.routing = std::make_unique<RandomRouting>();
  b.scaling = std::make_unique<NoScaling>();
  return b;
}

}  // namespace

int main() {
  std::cout << "Racing a custom scheduler against FluidFaaS on one trace\n\n";

  metrics::Table table(
      {"scheduler", "completed", "SLO hit", "mean queue (ms)"});

  // A bundle goes straight to the run: the custom one exactly like the
  // stock FluidFaaS one. Both replay the same light-tier trace.
  harness::ExperimentConfig config;
  config.tier = trace::WorkloadTier::kLight;
  config.num_nodes = 1;
  config.gpus_per_node = 4;
  config.duration = Seconds(90);
  config.load_factor = 0.3;
  using BundleFactory = platform::PolicyBundle (*)();
  const std::pair<const char*, BundleFactory> schedulers[] = {
      {"RandomScheduler", RandomBundle},
      {"FluidFaaS", [] { return core::MakeFluidFaasBundle(); }}};
  for (const auto& [name, make] : schedulers) {
    const harness::ExperimentResult result =
        harness::RunContext(config, {}, make()).Run();
    const metrics::Recorder& recorder = *result.recorder;
    const auto bd = recorder.MeanBreakdown();
    table.AddRow({name,
                  std::to_string(recorder.completed_requests()) + "/" +
                      std::to_string(recorder.total_requests()),
                  metrics::FmtPercent(recorder.SloHitRate()),
                  metrics::Fmt(bd.queue / 1000.0, 1)});
  }
  table.Print();
  std::cout << "\nplatform::PlatformCore supplies instances, loading, warm\n"
               "tracking and event publication; a scheduler is just a\n"
               "RoutingPolicy + ScalingPolicy bundle handed to it. See\n"
               "src/core/ffs_platform.cpp for the full FluidFaaS policy.\n";
  return 0;
}
