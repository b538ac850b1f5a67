// Shared configuration and printing helpers for the figure/table benches.
//
// Every bench binary reproduces one experiment of the paper (see DESIGN.md
// §3) at the paper's cluster scale: 2 nodes × 8 A100s, default
// partition 4g.40gb+2g.20gb+1g.10gb per GPU. Durations are simulated time;
// override with FFS_BENCH_DURATION_S for quicker smoke runs.
//
// A bench whose runs are standard experiments executes its whole grid as
// one harness::RunSweep; knobs beyond the standard axes ride its variants
// axis. Cells run concurrently (FFS_JOBS workers, default = hardware
// threads) and land by grid index, so stdout is byte-identical at any job
// count. ablation_partitioner and extension_llm run on function sets of
// their own, so they run harness::RunContexts directly, one at a time.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "metrics/report.h"

namespace fluidfaas::bench {

namespace detail {

/// Parse FFS_BENCH_DURATION_S exactly once (immutable after init). A
/// malformed, non-positive or non-finite value aborts the bench with a
/// clear message instead of silently falling back — std::atof used to
/// return 0 for garbage, which quietly restored the default duration.
inline std::optional<double> DurationOverrideSeconds() {
  static const std::optional<double> cached =
      []() -> std::optional<double> {
    const char* env = std::getenv("FFS_BENCH_DURATION_S");
    if (env == nullptr || *env == '\0') return std::nullopt;
    char* end = nullptr;
    errno = 0;
    const double s = std::strtod(env, &end);
    if (errno != 0 || end == env || *end != '\0' || !(s > 0.0) ||
        s > 1e9) {
      std::fprintf(stderr,
                   "FFS_BENCH_DURATION_S must be a positive number of "
                   "seconds (<= 1e9), got: \"%s\"\n",
                   env);
      std::exit(2);
    }
    return s;
  }();
  return cached;
}

}  // namespace detail

inline SimDuration BenchDuration(double default_seconds = 150.0) {
  if (const auto s = detail::DurationOverrideSeconds()) return Seconds(*s);
  return Seconds(default_seconds);
}

inline harness::ExperimentConfig PaperConfig(trace::WorkloadTier tier) {
  harness::ExperimentConfig cfg;
  cfg.tier = tier;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 8;
  cfg.duration = BenchDuration();
  cfg.seed = 1234;
  return cfg;
}

/// Write the BENCH_sweep.json artifact (FFS_SWEEP_OUT overrides the path)
/// and print where it went plus the wall-clock/speedup summary. Throws
/// FfsError when the file cannot be written.
inline void ReportSweepArtifact(const harness::SweepOutcome& outcome,
                                const std::string& fallback =
                                    "BENCH_sweep.json") {
  const std::string path = harness::SweepOutPath(fallback);
  harness::WriteSweepJsonFile(outcome, path);
  std::cout << "sweep artifact: " << path << " (" << outcome.cells.size()
            << " cells, jobs=" << outcome.jobs << ", wall "
            << metrics::Fmt(outcome.wall_seconds, 2) << "s, speedup "
            << metrics::Fmt(outcome.Speedup(), 2) << "x)\n";
}

inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "(reproduces " << paper_ref << "; simulated A100 cluster — "
            << "compare shapes, not absolute numbers; see EXPERIMENTS.md)\n\n";
}

}  // namespace fluidfaas::bench
