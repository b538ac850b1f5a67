// Seed-replication study (extension): the headline medium/heavy comparisons
// re-run across independent trace seeds, reported as mean ± std — evidence
// that the figures are not one lucky draw. The replica seeds form a
// deterministic sequence off the base seed and are the seeds axis of one
// tier × seed × system sweep.
#include "bench/bench_util.h"
#include "common/stats.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Replication — headline metrics across 5 trace seeds",
                "statistical robustness (extension beyond the paper)");
  constexpr std::size_t kReplicas = 5;
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kMedium);
  spec.base.duration = bench::BenchDuration(100.0);
  spec.tiers = {trace::WorkloadTier::kMedium, trace::WorkloadTier::kHeavy};
  std::uint64_t seed = spec.base.seed;
  for (std::size_t k = 0; k < kReplicas; ++k) {
    seed = seed * 7919 + 17;  // distinct, deterministic seeds
    spec.seeds.push_back(seed);
  }
  spec.systems = {harness::SystemKind::kEsg, harness::SystemKind::kFluidFaas};
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  const std::size_t kSystems = spec.systems.size();
  for (std::size_t t = 0; t < spec.tiers.size(); ++t) {
    metrics::Table table({"System", "thr mean", "thr std", "SLO mean",
                          "SLO std", "P95 mean"});
    double esg_thr = 0.0, fluid_thr = 0.0;
    for (std::size_t s = 0; s < kSystems; ++s) {
      RunningStats thr, slo, p95;
      for (std::size_t k = 0; k < kReplicas; ++k) {
        const harness::ExperimentResult& r =
            sweep.cells[(t * kReplicas + k) * kSystems + s].result;
        thr.Add(r.throughput_rps);
        slo.Add(r.recorder->SloHitRate());
        if (r.recorder->completed_requests() > 0) {
          p95.Add(r.recorder->LatencyPercentile(0.95));
        }
      }
      const harness::SystemKind kind = spec.systems[s];
      table.AddRow({harness::Name(kind), metrics::Fmt(thr.mean(), 1),
                    metrics::Fmt(thr.stddev(), 1),
                    metrics::FmtPercent(slo.mean()),
                    metrics::FmtPercent(slo.stddev()),
                    metrics::Fmt(p95.mean(), 1) + "s"});
      (kind == harness::SystemKind::kEsg ? esg_thr : fluid_thr) = thr.mean();
    }
    std::cout << "--- " << trace::Name(spec.tiers[t]) << " workload ("
              << kReplicas << " seeds) ---\n";
    table.Print();
    std::cout << "FluidFaaS vs ESG mean throughput: "
              << metrics::FmtGain(fluid_thr, esg_thr, 1) << "\n\n";
  }
  return 0;
}
