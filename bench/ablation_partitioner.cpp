// Partitioner ranking-policy ablation: the paper ranks pipeline candidates
// by coefficient of variation (Eq. 1). This bench compares that choice to
// fewest-stages-first and greedy-lowest-latency rankings, both at the
// planning level (which candidates win on a fragmented node) and end to
// end (SLO/throughput on the medium workload).
#include "bench/bench_util.h"
#include "core/partitioner.h"
#include "core/pipeline.h"
#include "harness/run_context.h"
#include "model/zoo.h"

using namespace fluidfaas;

namespace {

const char* PolicyName(core::RankPolicy p) {
  switch (p) {
    case core::RankPolicy::kCv:
      return "CV (paper)";
    case core::RankPolicy::kFewestStages:
      return "fewest stages";
    case core::RankPolicy::kGreedyLatency:
      return "greedy latency";
  }
  return "?";
}

}  // namespace

int main() {
  bench::Banner("Ablation — pipeline ranking policy (Eq. 1's CV vs others)",
                "§5.2.2 (extension beyond the paper)");

  // Planning-level: on a node with only 1g fragments free, what does each
  // policy deploy for each medium app, and how balanced is it?
  auto cluster = gpu::Cluster::Uniform(1, 8, gpu::DefaultPartition());
  for (SliceId sid : cluster.AllSlices()) {
    if (cluster.slice(sid).profile() != gpu::MigProfile::k1g10gb) {
      cluster.Bind(sid, InstanceId(1));
    }
  }
  metrics::Table plans({"app", "policy", "deployed plan", "bottleneck",
                        "e2e", "GPCs"});
  for (int a = 0; a < model::kNumApps; ++a) {
    const auto dag = model::BuildApp(a, model::Variant::kMedium);
    for (auto policy :
         {core::RankPolicy::kCv, core::RankPolicy::kFewestStages,
          core::RankPolicy::kGreedyLatency}) {
      auto ranked = core::EnumerateRankedPipelines(dag, 4, policy);
      auto plan = core::PlanFirstFeasible(dag, ranked, cluster);
      if (!plan) {
        plans.AddRow({model::AppName(a), PolicyName(policy), "(none)", "-",
                      "-", "-"});
        continue;
      }
      plans.AddRow(
          {model::AppName(a), PolicyName(policy),
           std::to_string(plan->num_stages()) + " stages",
           metrics::FmtMillis(static_cast<double>(plan->BottleneckTime())),
           metrics::FmtMillis(static_cast<double>(plan->EndToEndLatency())),
           std::to_string(plan->TotalGpcs())});
    }
  }
  std::cout << "planning on a node with only 1g fragments free:\n";
  plans.Print();

  // End-to-end: the platform consumes pre-ranked candidates via
  // FunctionSpec, so re-rank the medium tier's functions per policy and
  // replay the tier's own trace.
  std::cout << "\nend-to-end on the medium workload:\n";
  metrics::Table e2e({"policy", "thr (rps)", "SLO hit", "pipelines"});
  auto cfg = bench::PaperConfig(trace::WorkloadTier::kMedium);
  cfg.system = harness::SystemKind::kFluidFaas;
  const trace::Workload medium = harness::RunContext(cfg).workload();
  cfg.custom_trace = medium.trace;
  for (auto policy :
       {core::RankPolicy::kCv, core::RankPolicy::kFewestStages,
        core::RankPolicy::kGreedyLatency}) {
    std::vector<platform::FunctionSpec> fns = medium.functions;
    for (auto& fn : fns) {
      fn.ranked_pipelines =
          core::EnumerateRankedPipelines(fn.dag, 4, policy);
    }
    const harness::ExperimentResult r =
        harness::RunContext(cfg, std::move(fns), std::nullopt).Run();
    e2e.AddRow({PolicyName(policy), metrics::Fmt(r.throughput_rps, 1),
                metrics::FmtPercent(r.recorder->SloHitRate()),
                std::to_string(r.recorder->pipelines_committed())});
  }
  e2e.Print();
  std::cout << "\nCV ranking deploys the balanced splits first; greedy\n"
               "latency prefers shallow plans that bottleneck earlier.\n";
  return 0;
}
