// Figure 15 (+ Table 7): throughput under different MIG partitioning
// schemes — Hybrid, P1 and P2 — in the heavy workload. The scheme × system
// grid runs through the parallel engine (partitions vary beyond the
// standard sweep axes, so the cells are built explicitly).
#include "bench/bench_util.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Figure 15 — throughput under Table 7 partitions", "Fig. 15");
  struct Scheme {
    const char* name;
    std::vector<gpu::MigPartition> per_gpu;
    const char* paper_gain;
  };
  const std::vector<Scheme> schemes = {
      {"Hybrid", gpu::PartitionSchemeHybrid(), "+70%"},
      {"P1", gpu::PartitionSchemeP1(8), "+75%"},
      {"P2", gpu::PartitionSchemeP2(8), "+78%"},
  };
  std::vector<harness::ExperimentConfig> cells;
  for (const Scheme& s : schemes) {
    for (auto kind : harness::kComparisonSystems) {
      auto cfg = bench::PaperConfig(trace::WorkloadTier::kHeavy);
      cfg.partitions = {s.per_gpu, s.per_gpu};  // both nodes
      cfg.system = kind;
      cells.push_back(cfg);
    }
  }
  const auto results = harness::RunConfigs(cells);

  metrics::Table table({"Partition", "INFless rps", "ESG rps",
                        "FluidFaaS rps", "Fluid vs ESG", "Paper"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto& inf = results[3 * i + 0];
    const double esg = results[3 * i + 1].throughput_rps;
    const double fluid = results[3 * i + 2].throughput_rps;
    table.AddRow({schemes[i].name, metrics::Fmt(inf.throughput_rps, 1),
                  metrics::Fmt(esg, 1), metrics::Fmt(fluid, 1),
                  "+" + metrics::Fmt(100.0 * (fluid / esg - 1.0), 1) + "%",
                  schemes[i].paper_gain});
  }
  table.Print();
  std::cout << "\nShape to check: FluidFaaS leads on every scheme; the gap\n"
               "grows with the share of small fragmented slices.\n";
  return 0;
}
