// Figure 5: occupied vs actively-used MIG percentage per GPU under the
// exclusive keep-alive policy (ESG baseline, 10-minute keep-alive, long
// sparse trace). The paper reports 16.1% average active share and MIGs
// below 35% activity for 90% of the time.
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Figure 5 — occupied vs actively used GPU percentage",
                "Fig. 5");
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kLight);
  spec.base.duration = bench::BenchDuration(600.0);  // longer, sparse trace
  spec.base.load_factor = 0.06;
  spec.base.platform.exclusive_keepalive = Minutes(10);  // the paper's policy
  // Both systems run the same trace concurrently; ESG prints first.
  spec.systems = {harness::SystemKind::kEsg, harness::SystemKind::kFluidFaas};
  const harness::SweepOutcome sweep = harness::RunSweep(spec);
  const auto& esg = sweep.cells[0].result;

  metrics::Table table({"GPU", "occupied", "actively used"});
  auto occ = esg.recorder->PerGpuOccupancy();
  double mean_active = 0.0;
  double mean_occupied = 0.0;
  for (std::size_t g = 0; g < occ.size(); ++g) {
    table.AddRow({std::to_string(g + 1), metrics::FmtPercent(occ[g].occupied),
                  metrics::FmtPercent(occ[g].active)});
    mean_active += occ[g].active;
    mean_occupied += occ[g].occupied;
  }
  mean_active /= static_cast<double>(occ.size());
  mean_occupied /= static_cast<double>(occ.size());
  table.Print();

  const double below35 = esg.recorder->busy_gpcs().FractionAtOrBelow(
      0.35 * esg.recorder->total_gpcs(), 0, spec.base.duration);
  std::cout << "\naverage occupied " << metrics::FmtPercent(mean_occupied)
            << ", average actively used " << metrics::FmtPercent(mean_active)
            << " (paper: 16.1% active)\n"
            << "fraction of time cluster activity <= 35%: "
            << metrics::FmtPercent(below35)
            << " (paper: < 35% for 90% of the time)\n"
            << "\nFor comparison, FluidFaaS on the same trace:\n";

  const auto& fluid = sweep.cells[1].result;
  auto focc = fluid.recorder->PerGpuOccupancy();
  double f_active = 0.0, f_occ = 0.0;
  for (const auto& g : focc) {
    f_active += g.active;
    f_occ += g.occupied;
  }
  std::cout << "average occupied "
            << metrics::FmtPercent(f_occ / focc.size())
            << ", average actively used "
            << metrics::FmtPercent(f_active / focc.size())
            << " — eviction-based time sharing narrows the occupied/active "
               "gap\n";
  return 0;
}
