// Experiment harness: one call builds a cluster, a workload, and a platform
// (a platform::PlatformCore carrying the scheduler bundle of the config's
// SystemKind), replays the trace, lets in-flight work drain, and returns the
// metrics bundle the bench binaries print.
//
// Trace generation is seeded independently of the system under test, so the
// three platforms in one comparison see byte-identical arrivals.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpu/mig_partition.h"
#include "metrics/recorder.h"
#include "platform/config.h"
#include "platform/policy.h"
#include "trace/workload.h"

namespace fluidfaas::harness {

enum class SystemKind {
  kFluidFaas = 0,
  kEsg = 1,
  kInfless = 2,
  /// Extension baseline (not in the paper's eval): monolithic scheduling
  /// plus minutes-scale GPU repartitioning when fragmented out.
  kRepartition = 3,
  /// FluidFaaS with the paper's two-level controller/invoker structure
  /// made explicit (per-node invokers + front load balancer).
  kFluidFaasDistributed = 4,
};

// The schedulers form a closed set: one row per SystemKind in a fixed table
// (experiment.cpp) gives its display name, its CLI name and its bundle
// factory. Adding a scheduler is an enum entry plus a table row.

/// Display name, as reports and sweep cells carry it ("FluidFaaS", "ESG",
/// "INFless", "Repartition", "FluidFaaS-dist").
const char* Name(SystemKind kind);

/// The kind whose CLI name (`fluidfaas run --system`) is `cli_name`:
/// "fluidfaas", "esg", "infless", "repartition" or "distributed". Throws
/// FfsError for anything else.
SystemKind ParseSystem(const std::string& cli_name);

/// A fresh policy bundle of `kind`'s scheduler.
platform::PolicyBundle MakeBundle(SystemKind kind);

struct ExperimentConfig {
  SystemKind system = SystemKind::kFluidFaas;
  trace::WorkloadTier tier = trace::WorkloadTier::kMedium;

  int num_nodes = 2;
  int gpus_per_node = 8;
  /// Per-node GPU partitions; empty = default P1 on every GPU.
  std::vector<std::vector<gpu::MigPartition>> partitions;

  SimDuration duration = Seconds(300);
  /// Cap on post-trace draining of the backlog (longer than the exclusive
  /// keep-alive so blocked functions eventually get slices and finish).
  SimDuration drain_cap = Minutes(15);
  double load_factor = 0.0;  // 0 = tier default
  std::uint64_t seed = 1234;

  /// When non-empty, replay this trace instead of synthesizing one (e.g.
  /// loaded via trace::LoadCsv or trace::ExpandAzureDataset). Function ids
  /// must be < the tier's function count; invocations past `duration` are
  /// dropped.
  trace::Trace custom_trace;

  /// When non-empty, attach a metrics::TraceExporter to the run and write a
  /// Chrome-trace JSON (chrome://tracing, https://ui.perfetto.dev) here.
  /// Attaching the exporter never changes the simulation.
  std::string trace_out;

  /// Deterministic fault injection (sim::FaultInjector). rate 0 — the
  /// default — constructs no injector and schedules no timers, so
  /// fault-free runs stay byte-identical to builds without this feature.
  struct FaultConfig {
    double rate = 0.0;        // mean faults per second of simulated time
    std::uint64_t seed = 0;   // 0 = derive from the experiment seed
    SimDuration mttr = Seconds(30.0);  // mean slice repair time
    /// Per-request enforcement timeout scale (× SLO); copied into
    /// platform.request_timeout_scale when > 0.
    double timeout_scale = 0.0;
  };
  FaultConfig faults;

  platform::PlatformConfig platform;
};

/// What one run leaves behind. Every metric the Recorder can answer by
/// itself (SLO hit rate, MIG/GPU time, availability, placement, QoS and
/// scheduler counters, ...) is read from `recorder` directly; this struct
/// carries only the run facts around it and the two rates that need the
/// trace window.
struct ExperimentResult {
  /// Name(config.system), or kCustomSystem (run_context.h) when the run's
  /// policy bundle came from the caller.
  std::string system;
  std::string tier;

  std::unique_ptr<metrics::Recorder> recorder;
  std::vector<std::string> function_names;
  std::vector<SimDuration> function_slos;
  double offered_rps = 0.0;
  /// The tier's work-conserving bound; 0 when the caller supplied the
  /// function set.
  double ideal_rps = 0.0;
  SimTime makespan = 0;  // last completion (or trace end if greater)

  // Per second of the trace window (config.duration), which the Recorder
  // does not know: completions, and SLO-hit non-timed-out completions.
  double throughput_rps = 0.0;
  double goodput_rps = 0.0;
};

/// Run one experiment to completion (trace + drain) and collect metrics.
/// Thin wrapper over harness::RunContext (run_context.h), the
/// shared-nothing unit that parallel sweeps (sweep.h) execute per cell.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// The paper's three-system comparison, in report order: INFless, ESG,
/// FluidFaaS. `fluidfaas run --system all` runs it as the systems axis of a
/// SweepSpec (sweep.h).
inline const std::vector<SystemKind> kComparisonSystems = {
    SystemKind::kInfless, SystemKind::kEsg, SystemKind::kFluidFaas};

}  // namespace fluidfaas::harness
