// One experiment as a fully encapsulated, shared-nothing value.
//
// A RunContext owns every piece of mutable state a simulation run touches —
// cluster, workload, simulator (clock + event queue + bus), recorder,
// optional trace exporter, platform, optional fault injector — and reads no
// process-global mutable state while running. Two RunContexts therefore
// never observe each other: a thread pool can execute any number of them
// concurrently (harness::RunSweep) without perturbing a single byte of any
// run's output relative to sequential execution.
//
// The only process-wide structure a run consults is the scheduler registry
// (mutex-guarded, effectively immutable after
// EnsureBuiltinSchedulersRegistered).
#pragma once

#include <memory>
#include <string>

#include "gpu/cluster.h"
#include "harness/experiment.h"
#include "metrics/recorder.h"
#include "metrics/trace_exporter.h"
#include "platform/platform.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "trace/workload.h"

namespace fluidfaas::harness {

/// Idempotent, thread-safe registration of the builtin scheduler bundles
/// (FluidFaaS, FluidFaaS-dist, ESG, INFless, Repartition). RunContext calls
/// it on construction; parallel drivers may call it once up front so no
/// worker pays for (or races on) first-use initialization.
void EnsureBuiltinSchedulersRegistered();

class RunContext {
 public:
  /// Builds the whole run: cluster, workload (or the config's custom
  /// trace), recorder, optional exporter, platform and fault injector.
  /// Construction performs no simulation; Run() does.
  explicit RunContext(ExperimentConfig config);
  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Replay the trace, drain the backlog, close the recorder and collect
  /// the metrics bundle. One-shot: a RunContext runs exactly once.
  ExperimentResult Run();

  const ExperimentConfig& config() const { return config_; }
  const trace::Workload& workload() const { return workload_; }
  sim::Simulator& sim() { return sim_; }
  gpu::Cluster& cluster() { return cluster_; }
  platform::PlatformCore& platform() { return *platform_; }
  metrics::Recorder& recorder() { return *recorder_; }

 private:
  ExperimentConfig config_;
  gpu::Cluster cluster_;
  trace::Workload workload_;
  sim::Simulator sim_;
  std::unique_ptr<metrics::Recorder> recorder_;
  std::unique_ptr<metrics::TraceExporter> exporter_;
  std::unique_ptr<platform::PlatformCore> platform_;
  std::unique_ptr<sim::FaultInjector> injector_;
  bool ran_ = false;
};

}  // namespace fluidfaas::harness
