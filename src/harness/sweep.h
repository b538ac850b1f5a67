// Declarative, parallel, deterministic experiment sweeps.
//
// A SweepSpec describes a grid of runs (system × tier × seed × load factor
// × fault rate × labelled variant) over a base ExperimentConfig; it is how
// benches, the CLI and examples run experiments. RunSweep executes the grid
// on an std::thread pool (--jobs / FFS_JOBS) where every cell is an
// independent, shared-nothing harness::RunContext; results land by grid
// index, not completion order, so the outcome — tables printed from it and
// the BENCH_sweep.json artifact — is byte-identical at any job count.
// Wall-clock and the aggregate speedup (sum of per-cell seconds divided by
// wall seconds) are recorded alongside, clearly separated from the
// deterministic payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace fluidfaas::harness {

/// One cell of the grid: the axis values plus its row-major index.
/// Axis nesting, outermost first: tier, load factor, fault rate, variant,
/// seed, system — so a "compare systems per tier" sweep prints naturally.
struct SweepPoint {
  std::size_t index = 0;
  SystemKind system = SystemKind::kFluidFaas;
  trace::WorkloadTier tier = trace::WorkloadTier::kMedium;
  std::uint64_t seed = 0;
  double load_factor = 0.0;
  double fault_rate = 0.0;
  /// The variant's label and its position on the variants axis; empty and
  /// 0 when the spec has no variants axis.
  std::string variant;
  std::size_t variant_index = 0;
};

/// One value of the variants axis: the knobs a cell sets beyond the
/// standard axes (a QoS policy, an ablation toggle, a partition scheme).
/// `apply` runs after the standard axes on worker threads: it must be
/// deterministic and touch nothing but the config. A null `apply` leaves
/// the config as the standard axes made it.
struct SweepVariant {
  std::string label;  // non-empty; names the cell in tables and artifacts
  std::function<void(ExperimentConfig&)> apply;
};

struct SweepSpec {
  /// Everything the axes don't override. An empty axis means "the base
  /// config's value", so a spec with all axes empty is a 1-cell sweep.
  ExperimentConfig base;

  std::vector<SystemKind> systems;
  std::vector<trace::WorkloadTier> tiers;
  std::vector<std::uint64_t> seeds;
  std::vector<double> load_factors;
  std::vector<double> fault_rates;
  std::vector<SweepVariant> variants;

  std::size_t size() const;
  std::vector<SweepPoint> Points() const;
  ExperimentConfig MakeConfig(const SweepPoint& point) const;
};

struct SweepCell {
  SweepPoint point;
  ExperimentResult result;
  /// Wall seconds this cell spent on its worker (nondeterministic; kept
  /// out of the deterministic JSON payload).
  double seconds = 0.0;
};

struct SweepOutcome {
  std::vector<SweepCell> cells;  // ordered by point.index
  int jobs = 1;
  double wall_seconds = 0.0;
  double cell_seconds_total = 0.0;
  /// Aggregate parallel speedup: total per-cell compute over wall-clock.
  /// ~1 at jobs=1; approaches min(jobs, cells) on unloaded multi-core
  /// hosts.
  double Speedup() const {
    return wall_seconds > 0.0 ? cell_seconds_total / wall_seconds : 0.0;
  }
};

/// Worker count: FFS_JOBS when set (strictly validated: a positive
/// integer, nothing else), otherwise std::thread::hardware_concurrency().
/// Throws FfsError on a malformed FFS_JOBS.
int DefaultJobs();

/// Execute the grid. jobs <= 0 means DefaultJobs(); the pool never exceeds
/// the cell count. Results are ordered by grid index regardless of
/// completion order. The first exception thrown by any cell is rethrown
/// after all workers join.
SweepOutcome RunSweep(const SweepSpec& spec, int jobs = 0);

/// Serialize an outcome as the BENCH_sweep.json document. The "cells"
/// array is fully deterministic; a cell carries a "variant" key only when
/// its spec has a variants axis; the trailing "timing" object (jobs, wall
/// clock, per-cell seconds, speedup) is the only nondeterministic part and
/// is omitted when `include_timing` is false, making the document
/// byte-identical across job counts and repeated runs.
void WriteSweepJson(const SweepOutcome& outcome, std::ostream& os,
                    bool include_timing = true);

/// WriteSweepJson to `path`; throws FfsError when it cannot be written.
void WriteSweepJsonFile(const SweepOutcome& outcome, const std::string& path,
                        bool include_timing = true);

/// Artifact path: $FFS_SWEEP_OUT when set, else `fallback`.
std::string SweepOutPath(const std::string& fallback = "BENCH_sweep.json");

}  // namespace fluidfaas::harness
