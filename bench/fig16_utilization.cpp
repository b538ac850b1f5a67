// Figure 16: GPU utilization over time (busy GPCs / total GPCs) per
// workload, ESG vs FluidFaaS vs INFless. The tier × system grid executes
// as one parallel sweep.
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Figure 16 — GPU utilization over time", "Fig. 16");
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kLight);
  spec.tiers = {trace::WorkloadTier::kLight, trace::WorkloadTier::kMedium,
                trace::WorkloadTier::kHeavy};
  spec.systems = harness::kComparisonSystems;
  const harness::SweepOutcome sweep = harness::RunSweep(spec);
  const SimDuration duration = spec.base.duration;

  for (std::size_t t = 0; t < spec.tiers.size(); ++t) {
    const harness::ExperimentResult* results[3] = {
        &sweep.cells[3 * t + 0].result, &sweep.cells[3 * t + 1].result,
        &sweep.cells[3 * t + 2].result};

    std::cout << "--- " << trace::Name(spec.tiers[t])
              << " workload: utilization sampled every 10 s ---\n";
    metrics::Table table({"t (s)", "INFless", "ESG", "FluidFaaS"});
    for (SimTime tm = Seconds(10); tm <= duration; tm += Seconds(10)) {
      std::vector<std::string> row = {metrics::Fmt(ToSeconds(tm), 0)};
      for (const auto* r : results) {
        // 10-second window mean ending at tm.
        const double u =
            r->recorder->busy_gpcs().MeanOver(tm - Seconds(10), tm) /
            static_cast<double>(r->recorder->total_gpcs());
        row.push_back(metrics::FmtPercent(u));
      }
      table.AddRow(row);
    }
    table.Print();
    std::cout << "run mean: ";
    for (const auto* r : results) {
      const double u = r->recorder->busy_gpcs().MeanOver(0, duration) /
                       static_cast<double>(r->recorder->total_gpcs());
      std::cout << r->system << " " << metrics::FmtPercent(u) << "  ";
    }
    std::cout << "\n(paper §7.2: FluidFaaS utilization up to +75% over ESG "
                 "during heavy bursts)\n\n";
  }
  return 0;
}
