// LLM serving extension (paper §5.2.3): feasibility and service quality of
// 7B/13B/34B decoder models as FluidFaaS functions on the default
// partition, versus monolithic placement.
#include "bench/bench_util.h"
#include "core/partitioner.h"
#include "harness/run_context.h"
#include "model/llm.h"
#include "platform/function.h"

using namespace fluidfaas;

namespace {

/// FluidFaaS serving one LLM function at a fixed arrival rate on one node
/// of 8 default-partitioned A100s.
harness::ExperimentResult Serve(model::LlmSize size, double rps,
                                SimDuration duration) {
  harness::ExperimentConfig cfg;
  cfg.system = harness::SystemKind::kFluidFaas;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 8;
  cfg.duration = duration;
  const auto gap = static_cast<SimDuration>(1e6 / rps);
  for (SimTime t = 0; t < duration; t += gap) {
    cfg.custom_trace.push_back({t, FunctionId(0)});
  }
  std::vector<platform::FunctionSpec> fns;
  fns.push_back(platform::MakeFunctionSpec(
      FunctionId(0), 100, model::Variant::kLarge, model::BuildLlmApp(size),
      2.0, /*max_stages=*/6));
  return harness::RunContext(std::move(cfg), std::move(fns), std::nullopt)
      .Run();
}

}  // namespace

int main() {
  bench::Banner("Extension — LLM inference as FluidFaaS functions",
                "§5.2.3");
  metrics::Table feas({"model", "total mem", "monolithic min",
                       "pipelined min"});
  for (auto size :
       {model::LlmSize::k7B, model::LlmSize::k13B, model::LlmSize::k34B}) {
    const auto dag = model::BuildLlmApp(size);
    const auto mono = core::MinMonolithicProfile(dag);
    const auto piped = core::MinPipelinedProfile(dag, 6);
    feas.AddRow(
        {model::Name(size),
         metrics::Fmt(static_cast<double>(dag.TotalMemory()) / kGiB, 1) +
             " GB",
         mono ? gpu::Name(*mono) : "NONE", piped ? gpu::Name(*piped) : "NONE"});
  }
  feas.Print();

  const SimDuration dur = bench::BenchDuration(120.0);
  metrics::Table svc({"model", "offered rps", "completed", "SLO hit", "P95",
                      "pipelines"});
  const double rates[] = {6.0, 3.0, 1.5};
  int i = 0;
  for (auto size :
       {model::LlmSize::k7B, model::LlmSize::k13B, model::LlmSize::k34B}) {
    const double rps = rates[i++];
    const harness::ExperimentResult res = Serve(size, rps, dur);
    const metrics::Recorder& r = *res.recorder;
    svc.AddRow({model::Name(size), metrics::Fmt(rps, 1),
                std::to_string(r.completed_requests()),
                metrics::FmtPercent(r.SloHitRate()),
                metrics::Fmt(r.LatencyPercentile(0.95), 2) + "s",
                std::to_string(r.pipelines_committed())});
  }
  std::cout << "\nFluidFaaS serving each model on 8 default-partitioned "
               "A100s:\n";
  svc.Print();
  std::cout << "\nThe 34B model has NO feasible monolithic placement — the\n"
               "baselines cannot host it at all; FluidFaaS serves it from\n"
               "2g fragments.\n";
  return 0;
}
