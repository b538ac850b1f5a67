// LLM serving extension (paper §5.2.3): feasibility and service quality of
// 7B/13B/34B decoder models as FluidFaaS functions on the default
// partition, versus monolithic placement.
#include "bench/bench_util.h"
#include "core/ffs_platform.h"
#include "core/partitioner.h"
#include "model/llm.h"

using namespace fluidfaas;

namespace {

struct ServiceResult {
  std::size_t completed = 0;
  double slo = 0.0;
  double p95 = 0.0;
  std::size_t pipelines = 0;
};

ServiceResult Serve(model::LlmSize size, double rps, SimDuration duration) {
  sim::Simulator sim;
  auto cluster = gpu::Cluster::Uniform(1, 8, gpu::DefaultPartition());
  metrics::Recorder recorder(cluster);
  std::vector<platform::FunctionSpec> fns;
  fns.push_back(platform::MakeFunctionSpec(
      FunctionId(0), 100, model::Variant::kLarge, model::BuildLlmApp(size),
      2.0, /*max_stages=*/6));
  platform::PlatformCore plat(sim, cluster, std::move(fns),
                              platform::PlatformConfig{},
                              core::MakeFluidFaasBundle());
  recorder.SubscribeTo(sim.bus());
  plat.Start();
  const auto gap = static_cast<SimDuration>(1e6 / rps);
  for (SimTime t = 0; t < duration; t += gap) {
    sim.At(t, [&] { plat.Submit(FunctionId(0)); });
  }
  sim.RunUntil(duration + Minutes(3));
  plat.Stop();
  recorder.Close(sim.Now());
  ServiceResult r;
  r.completed = recorder.completed_requests();
  r.slo = recorder.SloHitRate();
  r.p95 = recorder.LatencyPercentile(0.95);
  r.pipelines = recorder.pipelines_committed();
  return r;
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
    auto r = Serve(size, rps, dur);
    svc.AddRow({model::Name(size), metrics::Fmt(rps, 1),
                std::to_string(r.completed), metrics::FmtPercent(r.slo),
                metrics::Fmt(r.p95, 2) + "s", std::to_string(r.pipelines)});
  }
  std::cout << "\nFluidFaaS serving each model on 8 default-partitioned "
               "A100s:\n";
  svc.Print();
  std::cout << "\nThe 34B model has NO feasible monolithic placement — the\n"
               "baselines cannot host it at all; FluidFaaS serves it from\n"
               "2g fragments.\n";
  return 0;
}
