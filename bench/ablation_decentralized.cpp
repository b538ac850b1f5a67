// Decentralization ablation (extension): the centralized FluidFaaS
// scheduler vs the paper's explicit two-level controller/invoker structure
// (§5.2.2), on the standard workloads. The tier × system grid executes as
// one parallel sweep.
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner(
      "Ablation — centralized scheduler vs per-node invokers (Fig. 2/6)",
      "§5.2.2 (extension beyond the paper)");
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kLight);
  spec.tiers = {trace::WorkloadTier::kLight, trace::WorkloadTier::kMedium,
                trace::WorkloadTier::kHeavy};
  spec.systems = {harness::SystemKind::kFluidFaas,
                  harness::SystemKind::kFluidFaasDistributed};
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  metrics::Table table({"Workload", "System", "thr (rps)", "SLO hit",
                        "pipelines", "evictions"});
  for (const harness::SweepCell& cell : sweep.cells) {
    const auto& r = cell.result;
    table.AddRow({trace::Name(cell.point.tier), r.system,
                  metrics::Fmt(r.throughput_rps, 1),
                  metrics::FmtPercent(r.recorder->SloHitRate()),
                  std::to_string(r.recorder->pipelines_committed()),
                  std::to_string(r.recorder->transitions(
                      sim::TransitionKind::kEviction))});
  }
  table.Print();
  std::cout << "\nPer-invoker scheduling keeps decisions node-local (no\n"
               "central coordination on the data path) at a modest cost in\n"
               "placement quality when one node's fragments could have\n"
               "served another node's overflow.\n";
  return 0;
}
