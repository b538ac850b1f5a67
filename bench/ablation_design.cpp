// Ablations of FluidFaaS's design decisions (DESIGN.md §4): pipelines,
// eviction-based time sharing, pipeline migration, and the CV ranking
// policy, each toggled in isolation on the medium and heavy workloads.
// All tier × toggle cells execute through the parallel engine.
#include "bench/bench_util.h"

using namespace fluidfaas;

namespace {

harness::ExperimentConfig Make(trace::WorkloadTier tier,
                               void (*mutate)(platform::PlatformConfig&)) {
  auto cfg = bench::PaperConfig(tier);
  cfg.system = harness::SystemKind::kFluidFaas;
  if (mutate) mutate(cfg.platform);
  return cfg;
}

void Report(metrics::Table& table, const char* name,
            const harness::ExperimentResult& r,
            const harness::ExperimentResult& base) {
  table.AddRow(
      {name, metrics::Fmt(r.throughput_rps, 1),
       metrics::FmtPercent(r.recorder->SloHitRate()),
       metrics::Fmt(100.0 * (r.throughput_rps / base.throughput_rps - 1.0),
                    1) +
           "%",
       std::to_string(r.scheduler.pipelines_launched),
       std::to_string(r.scheduler.evictions),
       std::to_string(r.scheduler.migrations)});
}

}  // namespace

int main() {
  bench::Banner("Ablation — FluidFaaS design features toggled in isolation",
                "DESIGN.md §4 (extension beyond the paper)");
  const struct {
    const char* name;
    void (*mutate)(platform::PlatformConfig&);
  } toggles[] = {
      {"full FluidFaaS", nullptr},
      {"- pipelines",
       [](platform::PlatformConfig& c) { c.enable_pipelines = false; }},
      {"- time sharing",
       [](platform::PlatformConfig& c) { c.enable_time_sharing = false; }},
      {"- migration",
       [](platform::PlatformConfig& c) { c.enable_migration = false; }},
      {"max 2 stages",
       [](platform::PlatformConfig& c) { c.max_stages = 2; }},
  };
  const trace::WorkloadTier tiers[] = {trace::WorkloadTier::kMedium,
                                       trace::WorkloadTier::kHeavy};
  std::vector<harness::ExperimentConfig> cells;
  for (auto tier : tiers) {
    for (const auto& t : toggles) cells.push_back(Make(tier, t.mutate));
  }
  const auto results = harness::RunConfigs(cells);

  const std::size_t kToggles = sizeof(toggles) / sizeof(toggles[0]);
  for (std::size_t ti = 0; ti < 2; ++ti) {
    metrics::Table table({"configuration", "thr (rps)", "SLO hit",
                          "thr vs full", "pipes", "evictions", "migrations"});
    const auto& full = results[ti * kToggles];
    for (std::size_t i = 0; i < kToggles; ++i) {
      Report(table, toggles[i].name, results[ti * kToggles + i], full);
    }
    std::cout << "--- " << trace::Name(tiers[ti]) << " workload ---\n";
    table.Print();
    std::cout << "\n";
  }
  return 0;
}
