// Reconfiguration vs pipelining (extension): the paper dismisses runtime
// MIG repartitioning because it takes minutes (§2.2); this bench races the
// Repartition baseline against FluidFaaS on the heavy workload so the cost
// of that road-not-taken is a number, not an assertion. The tier × system
// grid executes as one parallel sweep.
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner(
      "Ablation — runtime repartitioning vs pipeline construction",
      "§2.2's rigidity argument (extension beyond the paper)");
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kMedium);
  spec.tiers = {trace::WorkloadTier::kMedium, trace::WorkloadTier::kHeavy};
  spec.systems = {harness::SystemKind::kEsg,
                  harness::SystemKind::kRepartition,
                  harness::SystemKind::kFluidFaas};
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  metrics::Table table({"Workload", "System", "thr (rps)", "SLO hit",
                        "P95", "reconfigs", "blackout"});
  for (const harness::SweepCell& cell : sweep.cells) {
    const auto& r = cell.result;
    table.AddRow({trace::Name(cell.point.tier), r.system,
                  metrics::Fmt(r.throughput_rps, 1),
                  metrics::FmtPercent(r.recorder->SloHitRate()),
                  metrics::Fmt(r.recorder->LatencyPercentile(0.95), 1) + "s",
                  std::to_string(r.recorder->reconfigurations()),
                  metrics::Fmt(
                      ToSeconds(r.recorder->reconfiguration_blackout()), 0) +
                      "s"});
  }
  table.Print();
  std::cout << "\nEvery repartition rights the slice mix at the cost of a\n"
               "multi-minute GPU blackout; FluidFaaS gets the same capacity\n"
               "from the existing fragments with zero blackout.\n";
  return 0;
}
