// One experiment as a fully encapsulated, shared-nothing value.
//
// A RunContext owns every piece of mutable state a simulation run touches —
// cluster, workload, simulator (clock + event queue + bus), recorder,
// optional trace exporter, platform, optional fault injector — and reads no
// process-global mutable state while running. Two RunContexts therefore
// never observe each other: a thread pool can execute any number of them
// concurrently (harness::RunSweep) without perturbing a single byte of any
// run's output relative to sequential execution. The scheduler table it
// resolves SystemKind through (experiment.h) is constant.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpu/cluster.h"
#include "harness/experiment.h"
#include "metrics/recorder.h"
#include "metrics/trace_exporter.h"
#include "platform/platform.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "trace/workload.h"

namespace fluidfaas::harness {

/// Does nothing: the schedulers are a constant table (experiment.h). Kept
/// only because perfbench/ still calls it.
void EnsureBuiltinSchedulersRegistered();

/// ExperimentResult::system of a run whose bundle the caller supplied.
inline constexpr const char* kCustomSystem = "custom";

class RunContext {
 public:
  /// Builds the whole run: cluster, workload (or the config's custom
  /// trace), recorder, optional exporter, platform and fault injector.
  /// Construction performs no simulation; Run() does.
  explicit RunContext(ExperimentConfig config);

  /// The same run on the caller's inputs. Non-empty `functions` replace
  /// the tier's; `config.custom_trace` replays their arrivals and must
  /// then be non-empty (FfsError otherwise), and the result's `ideal_rps`
  /// is 0, since that bound is a property of a tier's mix. A set `bundle`
  /// replaces MakeBundle(config.system), and the result's `system` is
  /// then kCustomSystem.
  RunContext(ExperimentConfig config,
             std::vector<platform::FunctionSpec> functions,
             std::optional<platform::PolicyBundle> bundle);
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
  const char* system_name_;
  bool ran_ = false;
};

}  // namespace fluidfaas::harness
