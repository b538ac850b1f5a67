// Quickstart: define a FluidFaaS function with the programming API (the
// C++ analog of the paper's Fig. 7), let the planner rank its pipeline
// candidates, and run it on a simulated MIG cluster.
//
//   $ ./quickstart
#include <iostream>
#include <memory>

#include "core/ffs_function.h"
#include "core/partitioner.h"
#include "harness/run_context.h"
#include "metrics/report.h"
#include "model/zoo.h"
#include "platform/function.h"

using namespace fluidfaas;

int main() {
  // --- 1. Write the serverless function (paper Fig. 7) -------------------
  // Wrap each DNN component in an FfsModule and register the dataflow.
  // Component profiles normally come from BUILDDAG-mode profiling; here we
  // take them from the bundled model zoo.
  const auto scale = model::ScaleFor(/*app=*/0, model::Variant::kMedium);
  core::FfsModule super_res(model::MakeComponent(
      model::ComponentClass::kSuperResolution, scale, 0));
  core::FfsModule segmentation(model::MakeComponent(
      model::ComponentClass::kSegmentation, scale, 1));
  core::FfsModule classifier(model::MakeComponent(
      model::ComponentClass::kClassification, scale, 2));

  core::FfsFunctionBuilder builder("my_image_service");
  auto x1 = super_res.reg(builder, {core::FfsFunctionBuilder::kInput});
  auto x2 = segmentation.reg(builder, {x1});
  classifier.reg(builder, {x2});
  model::AppDag dag = std::move(builder).Build();

  std::cout << "function '" << dag.name() << "': " << dag.size()
            << " components, "
            << metrics::Fmt(static_cast<double>(dag.TotalMemory()) / kGiB, 1)
            << " GB GPU memory\n\n";

  // --- 2. Offline planning: CV-ranked pipeline candidates (Eq. 1) --------
  auto candidates = core::EnumerateRankedPipelines(dag, /*max_stages=*/3);
  std::cout << "pipeline candidates, best-balanced first:\n";
  for (const auto& c : candidates) {
    std::cout << "  " << core::ToString(c) << "\n";
  }

  // --- 3. Run it on a simulated cluster ----------------------------------
  // One node of two default-partitioned GPUs, 10 requests per second for
  // 90 seconds — under what the two GPUs can sustain, long enough to
  // amortize the cold starts.
  harness::ExperimentConfig config;
  config.system = harness::SystemKind::kFluidFaas;
  config.num_nodes = 1;
  config.gpus_per_node = 2;
  config.duration = Seconds(90);
  for (int i = 0; i < 900; ++i) {
    config.custom_trace.push_back({Millis(100) * i, FunctionId(0)});
  }
  std::vector<platform::FunctionSpec> fns;
  fns.push_back(platform::MakeFunctionSpec(
      FunctionId(0), 0, model::Variant::kMedium, dag, /*slo_scale=*/1.5));
  const SimDuration slo = fns[0].slo;

  // The run replays the trace on a PlatformCore carrying the FluidFaaS
  // policy bundle; the recorder counts what it does off the simulator's
  // event bus.
  const harness::ExperimentResult result =
      harness::RunContext(config, std::move(fns), std::nullopt).Run();
  const metrics::Recorder& recorder = *result.recorder;

  // --- 4. Results ----------------------------------------------------------
  std::cout << "\ncompleted " << recorder.completed_requests() << "/"
            << recorder.total_requests() << " requests; SLO ("
            << metrics::FmtMillis(static_cast<double>(slo)) << "): "
            << metrics::FmtPercent(recorder.SloHitRate()) << " hit rate\n"
            << "pipelines launched: " << recorder.pipelines_committed()
            << ", promotions: "
            << recorder.transitions(sim::TransitionKind::kPromotion)
            << ", evictions: "
            << recorder.transitions(sim::TransitionKind::kEviction) << "\n";
  const auto bd = recorder.MeanBreakdown();
  std::cout << "mean breakdown: queue " << metrics::FmtMillis(bd.queue)
            << ", load " << metrics::FmtMillis(bd.load) << ", exec "
            << metrics::FmtMillis(bd.exec) << ", transfer "
            << metrics::FmtMillis(bd.transfer) << "\n";
  return 0;
}
