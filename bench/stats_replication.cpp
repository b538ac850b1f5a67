// Seed-replication study (extension): the headline medium/heavy comparisons
// re-run across independent trace seeds, reported as mean ± std — evidence
// that the figures are not one lucky draw. The replica seeds form a
// deterministic sequence off the base seed, so the replicas of each row run
// concurrently through harness::RunConfigs.
#include "bench/bench_util.h"
#include "common/stats.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Replication — headline metrics across 5 trace seeds",
                "statistical robustness (extension beyond the paper)");
  const int replicas = 5;
  for (auto tier :
       {trace::WorkloadTier::kMedium, trace::WorkloadTier::kHeavy}) {
    metrics::Table table({"System", "thr mean", "thr std", "SLO mean",
                          "SLO std", "P95 mean"});
    double esg_thr = 0.0, fluid_thr = 0.0;
    for (auto kind : {harness::SystemKind::kEsg,
                      harness::SystemKind::kFluidFaas}) {
      auto cfg = bench::PaperConfig(tier);
      cfg.duration = bench::BenchDuration(100.0);
      cfg.system = kind;
      std::vector<harness::ExperimentConfig> cells;
      for (int i = 0; i < replicas; ++i) {
        cfg.seed = cfg.seed * 7919 + 17;  // distinct, deterministic seeds
        cells.push_back(cfg);
      }
      RunningStats thr, slo, p95;
      for (const harness::ExperimentResult& r : harness::RunConfigs(cells)) {
        thr.Add(r.throughput_rps);
        slo.Add(r.recorder->SloHitRate());
        if (r.recorder->completed_requests() > 0) {
          p95.Add(r.recorder->LatencyPercentile(0.95));
        }
      }
      table.AddRow({harness::Name(kind), metrics::Fmt(thr.mean(), 1),
                    metrics::Fmt(thr.stddev(), 1),
                    metrics::FmtPercent(slo.mean()),
                    metrics::FmtPercent(slo.stddev()),
                    metrics::Fmt(p95.mean(), 1) + "s"});
      (kind == harness::SystemKind::kEsg ? esg_thr : fluid_thr) = thr.mean();
    }
    std::cout << "--- " << trace::Name(tier) << " workload (" << replicas
              << " seeds) ---\n";
    table.Print();
    std::cout << "FluidFaaS vs ESG mean throughput: +"
              << metrics::Fmt(100.0 * (fluid_thr / esg_thr - 1.0), 1)
              << "%\n\n";
  }
  return 0;
}
