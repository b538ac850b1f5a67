// Figures 11-13: end-to-end latency CDFs per application for heavy (11),
// medium (12) and light (13) workloads. Pass "heavy", "medium" or "light"
// to restrict to one tier; default runs all three. The tier × system grid
// executes as one parallel sweep; printing follows grid order.
#include <cstring>

#include "bench/bench_util.h"
#include "common/stats.h"

using namespace fluidfaas;

namespace {

void PrintTier(trace::WorkloadTier tier,
               const harness::ExperimentResult* results[3]) {
  const auto& names = results[0]->function_names;

  std::cout << "--- " << trace::Name(tier) << " workload ---\n";
  const std::vector<double> qs = {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99};
  for (std::size_t f = 0; f < names.size(); ++f) {
    metrics::Table table({"system", "p10", "p25", "p50", "p75", "p90", "p95",
                          "p99"});
    for (std::size_t s = 0; s < 3; ++s) {
      const auto& r = *results[s];
      auto lats = r.recorder->LatenciesSeconds(
          FunctionId(static_cast<std::int32_t>(f)));
      if (lats.empty()) continue;
      auto ps = Percentiles(lats, qs);
      std::vector<std::string> row = {r.system};
      for (double p : ps) row.push_back(metrics::Fmt(p, 3) + "s");
      table.AddRow(row);
    }
    std::cout << names[f] << ":\n";
    table.Print();
  }
  // The paper's headline: P95 tail-latency reduction vs ESG.
  const double esg95 = results[1]->recorder->LatencyPercentile(0.95);
  const double fluid95 = results[2]->recorder->LatencyPercentile(0.95);
  if (esg95 > 0) {
    std::cout << "P95 (all apps): ESG " << metrics::Fmt(esg95, 3)
              << "s, FluidFaaS " << metrics::Fmt(fluid95, 3) << "s ("
              << metrics::Fmt(100.0 * (1.0 - fluid95 / esg95), 1)
              << "% reduction; paper: up to 81% heavy / 70% medium)\n\n";
  }
}

void RunTiers(const std::vector<trace::WorkloadTier>& tiers) {
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(tiers.front());
  spec.tiers = tiers;
  spec.systems = harness::kComparisonSystems;
  const harness::SweepOutcome sweep = harness::RunSweep(spec);
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    const harness::ExperimentResult* results[3] = {
        &sweep.cells[3 * t + 0].result, &sweep.cells[3 * t + 1].result,
        &sweep.cells[3 * t + 2].result};
    PrintTier(tiers[t], results);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("Figures 11-13 — end-to-end latency distributions",
                "Figs. 11, 12, 13");
  if (argc > 1) {
    if (!std::strcmp(argv[1], "heavy")) {
      RunTiers({trace::WorkloadTier::kHeavy});
    } else if (!std::strcmp(argv[1], "medium")) {
      RunTiers({trace::WorkloadTier::kMedium});
    } else {
      RunTiers({trace::WorkloadTier::kLight});
    }
    return 0;
  }
  RunTiers({trace::WorkloadTier::kHeavy, trace::WorkloadTier::kMedium,
            trace::WorkloadTier::kLight});
  return 0;
}
