// Scenario example: the paper's Fig. 1 situation, end to end. A fragmented
// cluster has no slice large enough for a new image-classification
// instance; a monolithic platform must queue, while FluidFaaS builds a
// pipeline across the fragments and serves the burst.
//
//   $ ./image_pipeline
#include <iostream>
#include <utility>

#include "harness/run_context.h"
#include "metrics/report.h"
#include "model/zoo.h"

using namespace fluidfaas;

namespace {

harness::ExperimentResult Run(harness::SystemKind system) {
  // One node, two GPUs, default partition (Fig. 1's layout class); 100
  // seconds of traffic at ~1.2 rps — "instance D"'s load, below what one
  // pipeline over the fragments can sustain.
  harness::ExperimentConfig config;
  config.system = system;
  config.num_nodes = 1;
  config.gpus_per_node = 2;
  config.duration = Seconds(100);
  for (int i = 0; i < 120; ++i) {
    config.custom_trace.push_back({Millis(833) * i, FunctionId(0)});
  }

  // Large image-classification variant: needs a 3g/4g monolithically.
  std::vector<platform::FunctionSpec> fns;
  fns.push_back(platform::MakeFunctionSpec(
      FunctionId(0), 0, model::Variant::kLarge,
      model::BuildApp(0, model::Variant::kLarge), 1.5));
  harness::RunContext ctx(config, std::move(fns), std::nullopt);

  // Fragment the cluster first: both 4g slices are held by other tenants
  // ("instance A/B/C" of Fig. 1). Only 2g and 1g fragments remain.
  gpu::Cluster& cluster = ctx.cluster();
  for (SliceId sid : cluster.AllSlices()) {
    if (cluster.slice(sid).profile() == gpu::MigProfile::k4g40gb) {
      cluster.Bind(sid, InstanceId(999));
      ctx.sim().bus().Publish(sim::SliceBound{sid, InstanceId(999), 0});
    }
  }

  return ctx.Run();
}

}  // namespace

int main() {
  std::cout
      << "Fig. 1 scenario: both 4g.40gb slices are taken by other tenants;\n"
         "a large image-classification function (monolithic minimum "
         "3g.40gb)\nmust be served from the 2g/1g fragments.\n\n";
  metrics::Table table(
      {"platform", "completed", "SLO hit rate", "P95 latency"});
  const std::pair<const char*, harness::SystemKind> platforms[] = {
      {"ESG (monolithic)", harness::SystemKind::kEsg},
      {"FluidFaaS", harness::SystemKind::kFluidFaas}};
  for (const auto& [name, system] : platforms) {
    const harness::ExperimentResult result = Run(system);
    const metrics::Recorder& r = *result.recorder;
    table.AddRow({name, std::to_string(r.completed_requests()),
                  metrics::FmtPercent(r.SloHitRate()),
                  r.completed_requests()
                      ? metrics::Fmt(r.LatencyPercentile(0.95), 2) + "s"
                      : "-"});
  }
  table.Print();
  std::cout << "\nThe monolithic baseline can only wait for a large slice;\n"
               "FluidFaaS pipelines across the idle fragments.\n";
  return 0;
}
