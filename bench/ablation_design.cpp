// Ablations of FluidFaaS's design decisions (DESIGN.md §4): pipelines,
// eviction-based time sharing, pipeline migration, and the CV ranking
// policy, each toggled in isolation on the medium and heavy workloads.
// The toggles are the variants axis of one tier × toggle sweep.
#include "bench/bench_util.h"

using namespace fluidfaas;

namespace {

void Report(metrics::Table& table, const std::string& name,
            const harness::ExperimentResult& r,
            const harness::ExperimentResult& base) {
  table.AddRow(
      {name, metrics::Fmt(r.throughput_rps, 1),
       metrics::FmtPercent(r.recorder->SloHitRate()),
       metrics::FmtGain(r.throughput_rps, base.throughput_rps, 1),
       std::to_string(r.recorder->pipelines_committed()),
       std::to_string(r.recorder->transitions(sim::TransitionKind::kEviction)),
       std::to_string(
           r.recorder->transitions(sim::TransitionKind::kMigration))});
}

}  // namespace

int main() {
  bench::Banner("Ablation — FluidFaaS design features toggled in isolation",
                "DESIGN.md §4 (extension beyond the paper)");
  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kMedium);
  spec.base.system = harness::SystemKind::kFluidFaas;
  spec.tiers = {trace::WorkloadTier::kMedium, trace::WorkloadTier::kHeavy};
  spec.variants = {
      {"full FluidFaaS", nullptr},
      {"- pipelines", [](auto& c) { c.platform.enable_pipelines = false; }},
      {"- time sharing",
       [](auto& c) { c.platform.enable_time_sharing = false; }},
      {"- migration", [](auto& c) { c.platform.enable_migration = false; }},
      {"max 2 stages", [](auto& c) { c.platform.max_stages = 2; }},
  };
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  const std::size_t kToggles = spec.variants.size();
  for (std::size_t ti = 0; ti < spec.tiers.size(); ++ti) {
    metrics::Table table({"configuration", "thr (rps)", "SLO hit",
                          "thr vs full", "pipes", "evictions", "migrations"});
    const auto& full = sweep.cells[ti * kToggles].result;
    for (std::size_t i = 0; i < kToggles; ++i) {
      const harness::SweepCell& cell = sweep.cells[ti * kToggles + i];
      Report(table, cell.point.variant, cell.result, full);
    }
    std::cout << "--- " << trace::Name(spec.tiers[ti]) << " workload ---\n";
    table.Print();
    std::cout << "\n";
  }
  return 0;
}
