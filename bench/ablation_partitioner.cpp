// Partitioner ranking-policy ablation: the paper ranks pipeline candidates
// by coefficient of variation (Eq. 1). This bench compares that choice to
// fewest-stages-first and greedy-lowest-latency rankings, both at the
// planning level (which candidates win on a fragmented node) and end to
// end (SLO/throughput on the medium workload).
#include "bench/bench_util.h"
#include "core/ffs_platform.h"
#include "core/partitioner.h"
#include "core/pipeline.h"
#include "model/zoo.h"
#include "platform/function.h"
#include "sim/simulator.h"

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
  // FunctionSpec, so re-rank per policy and run the medium workload.
  std::cout << "\nend-to-end on the medium workload:\n";
  metrics::Table e2e({"policy", "thr (rps)", "SLO hit", "pipelines"});
  for (auto policy :
       {core::RankPolicy::kCv, core::RankPolicy::kFewestStages,
        core::RankPolicy::kGreedyLatency}) {
    auto cfg = bench::PaperConfig(trace::WorkloadTier::kMedium);
    cfg.system = harness::SystemKind::kFluidFaas;
    // RunExperiment builds specs with the default (CV) policy; emulate the
    // alternative by bounding stages for kFewestStages and note kGreedy
    // via a custom run below. For a faithful comparison we run the
    // platform manually.
    sim::Simulator simulator;
    auto c =
        gpu::Cluster::Uniform(cfg.num_nodes, cfg.gpus_per_node,
                              gpu::DefaultPartition());
    metrics::Recorder rec(c);
    trace::WorkloadParams wp;
    wp.duration = cfg.duration;
    wp.seed = cfg.seed;
    auto workload = trace::MakeWorkload(cfg.tier, c, wp);
    for (auto& fn : workload.functions) {
      fn.ranked_pipelines =
          core::EnumerateRankedPipelines(fn.dag, 4, policy);
    }
    platform::PlatformCore plat(simulator, c, workload.functions,
                                cfg.platform, core::MakeFluidFaasBundle());
    rec.SubscribeTo(simulator.bus());
    plat.Start();
    for (const auto& inv : workload.trace) {
      simulator.At(inv.time, [&plat, fn = inv.fn] { plat.Submit(fn); });
    }
    simulator.RunUntil(cfg.duration + Minutes(5));
    plat.Stop();
    rec.Close(simulator.Now());
    e2e.AddRow({PolicyName(policy),
                metrics::Fmt(rec.WindowedThroughput(cfg.duration), 1),
                metrics::FmtPercent(rec.SloHitRate()),
                std::to_string(rec.pipelines_committed())});
  }
  e2e.Print();
  std::cout << "\nCV ranking deploys the balanced splits first; greedy\n"
               "latency prefers shallow plans that bottleneck earlier.\n";
  return 0;
}
