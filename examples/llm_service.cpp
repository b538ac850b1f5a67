// LLM serving on MIG fragments (paper §5.2.3's extension): a 34B-parameter
// model (~80 GB at fp16 with KV cache) does not fit ANY MIG profile as a
// monolith — yet FluidFaaS serves it on a default-partitioned cluster by
// mapping its transformer layer groups onto 2g.20gb fragments.
//
//   $ ./llm_service
#include <iostream>

#include "core/partitioner.h"
#include "harness/run_context.h"
#include "metrics/report.h"
#include "model/llm.h"

using namespace fluidfaas;

namespace {

void Describe(model::LlmSize size) {
  const auto dag = model::BuildLlmApp(size);
  const auto mono = core::MinMonolithicProfile(dag);
  const auto piped = core::MinPipelinedProfile(dag, 8);
  std::cout << "  " << model::Name(size) << ": "
            << metrics::Fmt(static_cast<double>(dag.TotalMemory()) / kGiB, 1)
            << " GB across " << dag.size() << " components; monolithic min "
            << (mono ? gpu::Name(*mono) : "NONE (exceeds 7g.80gb)")
            << ", pipelined min " << (piped ? gpu::Name(*piped) : "NONE")
            << "\n";
}

}  // namespace

int main() {
  std::cout << "LLM services as FluidFaaS functions:\n";
  for (auto size :
       {model::LlmSize::k7B, model::LlmSize::k13B, model::LlmSize::k34B}) {
    Describe(size);
  }

  // Serve the 34B model on one node of default-partitioned GPUs: 120
  // generations, one every 400 ms.
  harness::ExperimentConfig config;
  config.system = harness::SystemKind::kFluidFaas;
  config.num_nodes = 1;
  config.gpus_per_node = 4;
  config.duration = Seconds(48);
  for (int i = 0; i < 120; ++i) {
    config.custom_trace.push_back({Millis(400) * i, FunctionId(0)});
  }
  std::vector<platform::FunctionSpec> fns;
  fns.push_back(platform::MakeFunctionSpec(
      FunctionId(0), /*app_index=*/100, model::Variant::kLarge,
      model::BuildLlmApp(model::LlmSize::k34B), /*slo_scale=*/2.0,
      /*max_stages=*/6));
  const auto& spec = fns[0];
  std::cout << "\nSLO for " << spec.name << ": "
            << metrics::Fmt(ToSeconds(spec.slo), 2) << "s (2x solo time on "
            << "its minimum slice class)\n";

  const harness::ExperimentResult result =
      harness::RunContext(config, std::move(fns), std::nullopt).Run();
  const metrics::Recorder& recorder = *result.recorder;

  std::cout << "served " << recorder.completed_requests() << "/"
            << recorder.total_requests() << " generations, SLO hit rate "
            << metrics::FmtPercent(recorder.SloHitRate()) << ", pipelines "
            << recorder.pipelines_committed() << "\n";
  auto lats = recorder.LatenciesSeconds();
  if (!lats.empty()) {
    std::cout << "latency p50 " << metrics::Fmt(Percentile(lats, 0.5), 2)
              << "s, p95 " << metrics::Fmt(Percentile(lats, 0.95), 2)
              << "s\n";
  }
  std::cout << "\nA monolithic MIG scheduler cannot host this model at all —"
            << "\nno profile has "
            << metrics::Fmt(static_cast<double>(
                                model::BuildLlmApp(model::LlmSize::k34B)
                                    .TotalMemory()) /
                                kGiB,
                            0)
            << " GB. Pipelined stages on fragments make it a serverless "
               "function.\n";
  return 0;
}
