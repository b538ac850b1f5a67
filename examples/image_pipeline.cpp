// Scenario example: the paper's Fig. 1 situation, end to end. A fragmented
// cluster has no slice large enough for a new image-classification
// instance; a monolithic platform must queue, while FluidFaaS builds a
// pipeline across the fragments and serves the burst.
//
//   $ ./image_pipeline
#include <iostream>

#include "baselines/esg_platform.h"
#include "core/ffs_platform.h"
#include "metrics/recorder.h"
#include "metrics/report.h"
#include "model/zoo.h"

using namespace fluidfaas;

namespace {

struct Outcome {
  std::string name;
  std::size_t completed = 0;
  double slo_hit = 0.0;
  double p95_s = 0.0;
};

Outcome Run(const char* name, platform::PolicyBundle bundle) {
  sim::Simulator sim;
  // One node, two GPUs, default partition (Fig. 1's layout class).
  auto cluster = gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition());
  metrics::Recorder recorder(cluster);

  // Large image-classification variant: needs a 3g/4g monolithically.
  std::vector<platform::FunctionSpec> fns;
  fns.push_back(platform::MakeFunctionSpec(
      FunctionId(0), 0, model::Variant::kLarge,
      model::BuildApp(0, model::Variant::kLarge), 1.5));

  platform::PlatformConfig config;
  platform::PlatformCore platform(sim, cluster, std::move(fns), config,
                                  std::move(bundle));
  recorder.SubscribeTo(sim.bus());

  // Fragment the cluster first: both 4g slices are held by other tenants
  // ("instance A/B/C" of Fig. 1). Only 2g and 1g fragments remain.
  for (SliceId sid : cluster.AllSlices()) {
    if (cluster.slice(sid).profile() == gpu::MigProfile::k4g40gb) {
      cluster.Bind(sid, InstanceId(999));
      sim.bus().Publish(sim::SliceBound{sid, InstanceId(999), 0});
    }
  }

  platform.Start();
  // 100 seconds of traffic at ~1.2 rps — "instance D"'s load, below what
  // one pipeline over the fragments can sustain.
  for (int i = 0; i < 120; ++i) {
    sim.At(Millis(833) * i, [&] { platform.Submit(FunctionId(0)); });
  }
  sim.RunUntil(Seconds(240));
  platform.Stop();
  recorder.Close(sim.Now());

  Outcome o;
  o.name = name;
  o.completed = recorder.completed_requests();
  o.slo_hit = recorder.SloHitRate();
  o.p95_s = recorder.LatencyPercentile(0.95);
  return o;
}

}  // namespace

int main() {
  std::cout
      << "Fig. 1 scenario: both 4g.40gb slices are taken by other tenants;\n"
         "a large image-classification function (monolithic minimum "
         "3g.40gb)\nmust be served from the 2g/1g fragments.\n\n";
  const Outcome esg = Run("ESG (monolithic)", baselines::MakeEsgBundle());
  const Outcome fluid = Run("FluidFaaS", core::MakeFluidFaasBundle());

  metrics::Table table(
      {"platform", "completed", "SLO hit rate", "P95 latency"});
  for (const Outcome& o : {esg, fluid}) {
    table.AddRow({o.name, std::to_string(o.completed),
                  metrics::FmtPercent(o.slo_hit),
                  o.completed ? metrics::Fmt(o.p95_s, 2) + "s" : "-"});
  }
  table.Print();
  std::cout << "\nThe monolithic baseline can only wait for a large slice;\n"
               "FluidFaaS pipelines across the idle fragments.\n";
  return 0;
}
