// Figure 9: SLO hit rate per application under light / medium / heavy
// workloads for INFless, ESG and FluidFaaS.
//
// The 3×3 grid (tier × system) executes as one parallel sweep; the
// per-cell metrics plus wall-clock/speedup land in BENCH_sweep.json
// (FFS_SWEEP_OUT overrides the path).
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Figure 9 — SLO hit rate per application and workload",
                "Fig. 9");
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kLight);
  spec.tiers = {trace::WorkloadTier::kLight, trace::WorkloadTier::kMedium,
                trace::WorkloadTier::kHeavy};
  spec.systems = harness::kComparisonSystems;
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  for (std::size_t t = 0; t < spec.tiers.size(); ++t) {
    // Row-major grid: cells [3t, 3t+3) are this tier's INFless/ESG/Fluid.
    const harness::ExperimentResult* results[3] = {
        &sweep.cells[3 * t + 0].result, &sweep.cells[3 * t + 1].result,
        &sweep.cells[3 * t + 2].result};
    metrics::Table table({"Application", "INFless", "ESG", "FluidFaaS"});
    const auto& names = results[0]->function_names;
    for (std::size_t f = 0; f < names.size(); ++f) {
      std::vector<std::string> row = {names[f]};
      for (const auto* r : results) {
        row.push_back(metrics::FmtPercent(
            r->recorder->SloHitRate(FunctionId(static_cast<std::int32_t>(f)))));
      }
      table.AddRow(row);
    }
    std::vector<std::string> overall = {"ALL"};
    for (const auto* r : results) {
      overall.push_back(metrics::FmtPercent(r->recorder->SloHitRate()));
    }
    table.AddRow(overall);

    std::cout << "--- " << trace::Name(spec.tiers[t]) << " workload (offered "
              << metrics::Fmt(results[0]->offered_rps, 1) << " rps) ---\n";
    table.Print();
    const double esg = results[1]->recorder->SloHitRate();
    const double fluid = results[2]->recorder->SloHitRate();
    if (esg > 0) {
      std::cout << "FluidFaaS vs ESG: "
                << metrics::Fmt(100.0 * (fluid / esg - 1.0), 1)
                << "% relative SLO hit-rate change (paper: up to +90% medium,"
                << " +61% heavy)\n\n";
    }
  }
  bench::ReportSweepArtifact(sweep);
  return 0;
}
