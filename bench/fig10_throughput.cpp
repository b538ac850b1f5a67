// Figure 10: system throughput under light / medium / heavy workloads, and
// the completion ("finish all tasks") times behind §7.2's 10% / 17% claim.
// The 3×3 grid (tier × system) executes as one parallel sweep.
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Figure 10 — system throughput per workload", "Fig. 10");
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kLight);
  spec.tiers = {trace::WorkloadTier::kLight, trace::WorkloadTier::kMedium,
                trace::WorkloadTier::kHeavy};
  spec.systems = harness::kComparisonSystems;
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  metrics::Table table({"Workload", "Offered rps", "INFless rps", "ESG rps",
                        "FluidFaaS rps", "Fluid vs ESG", "Fluid makespan",
                        "ESG makespan"});
  for (std::size_t t = 0; t < spec.tiers.size(); ++t) {
    const auto& inf = sweep.cells[3 * t + 0].result;
    const auto& esg = sweep.cells[3 * t + 1].result;
    const auto& fluid = sweep.cells[3 * t + 2].result;
    table.AddRow(
        {trace::Name(spec.tiers[t]), metrics::Fmt(inf.offered_rps, 1),
         metrics::Fmt(inf.throughput_rps, 1),
         metrics::Fmt(esg.throughput_rps, 1),
         metrics::Fmt(fluid.throughput_rps, 1),
         metrics::FmtGain(
             100.0 * (fluid.throughput_rps / esg.throughput_rps - 1.0), 1),
         metrics::Fmt(ToSeconds(fluid.makespan), 1) + "s",
         metrics::Fmt(ToSeconds(esg.makespan), 1) + "s"});
  }
  table.Print();
  std::cout << "\nPaper shape: similar in light, +25% medium, +75% heavy;\n"
               "FluidFaaS finishes all tasks earlier in medium/heavy.\n";
  return 0;
}
