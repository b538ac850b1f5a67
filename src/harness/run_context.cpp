#include "harness/run_context.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace fluidfaas::harness {

namespace {

std::vector<std::vector<gpu::MigPartition>> PartitionsFor(
    const ExperimentConfig& config) {
  if (!config.partitions.empty()) return config.partitions;
  return std::vector<std::vector<gpu::MigPartition>>(
      static_cast<std::size_t>(config.num_nodes),
      gpu::PartitionSchemeP1(config.gpus_per_node));
}

/// The tier's workload, or the caller's `functions` (when non-empty), with
/// the config's custom trace replacing the synthesized arrivals.
trace::Workload BuildWorkload(const ExperimentConfig& config,
                              const gpu::Cluster& cluster,
                              std::vector<platform::FunctionSpec> functions) {
  trace::Workload workload;
  if (functions.empty()) {
    trace::WorkloadParams wp;
    wp.slo_scale = config.platform.slo_scale;
    wp.duration = config.duration;
    wp.load_factor = config.load_factor;
    wp.seed = config.seed;
    wp.max_stages = config.platform.max_stages;
    workload = trace::MakeWorkload(config.tier, cluster, wp);
  } else {
    FFS_CHECK_MSG(!config.custom_trace.empty(),
                  "a caller-supplied function set needs a custom trace");
    workload.tier = config.tier;
    workload.functions = std::move(functions);
  }
  if (!config.custom_trace.empty()) {
    workload.trace.clear();
    for (const trace::Invocation& inv : config.custom_trace) {
      FFS_CHECK_MSG(inv.fn.valid() &&
                        static_cast<std::size_t>(inv.fn.value) <
                            workload.functions.size(),
                    "custom trace references unknown function id " +
                        ToString(inv.fn));
      if (inv.time < config.duration) workload.trace.push_back(inv);
    }
    trace::SortTrace(workload.trace);
    workload.offered_rps =
        trace::MeanRps(workload.trace, config.duration);
  }
  return workload;
}

}  // namespace

void EnsureBuiltinSchedulersRegistered() {}

RunContext::RunContext(ExperimentConfig config)
    : RunContext(std::move(config), {}, std::nullopt) {}

RunContext::RunContext(ExperimentConfig config,
                       std::vector<platform::FunctionSpec> functions,
                       std::optional<platform::PolicyBundle> bundle)
    : config_(std::move(config)),
      cluster_(PartitionsFor(config_)),
      workload_(BuildWorkload(config_, cluster_, std::move(functions))),
      system_name_(bundle ? kCustomSystem : Name(config_.system)) {
  recorder_ = std::make_unique<metrics::Recorder>(cluster_);
  // The recorder is the first bus subscriber, so its view of every event
  // precedes any observer attached afterwards.
  recorder_->SubscribeTo(sim_.bus());
  if (!config_.trace_out.empty()) {
    exporter_ = std::make_unique<metrics::TraceExporter>();
    std::vector<std::string> names;
    for (const platform::FunctionSpec& f : workload_.functions) {
      names.push_back(f.name);
    }
    exporter_->SetFunctionNames(std::move(names));
    exporter_->SubscribeTo(sim_.bus());
  }

  platform::PlatformConfig pconfig = config_.platform;
  if (config_.faults.timeout_scale > 0.0) {
    pconfig.request_timeout_scale = config_.faults.timeout_scale;
  }
  platform_ = std::make_unique<platform::PlatformCore>(
      sim_, cluster_, workload_.functions, pconfig,
      bundle ? std::move(*bundle) : MakeBundle(config_.system));

  if (config_.faults.rate > 0.0) {
    sim::FaultPlan fp;
    fp.rate = config_.faults.rate;
    fp.seed = config_.faults.seed != 0
                  ? config_.faults.seed
                  : config_.seed ^ 0x9e3779b97f4a7c15ULL;
    fp.mttr = config_.faults.mttr;
    fp.horizon = config_.duration;
    fp.num_slices = static_cast<int>(cluster_.num_slices());
    injector_ = std::make_unique<sim::FaultInjector>(sim_, fp);
  }
}

RunContext::~RunContext() = default;

ExperimentResult RunContext::Run() {
  FFS_CHECK_MSG(!ran_, "RunContext::Run() is one-shot");
  ran_ = true;

  if (injector_) injector_->Start();
  platform_->Start();
  for (const trace::Invocation& inv : workload_.trace) {
    sim_.At(inv.time, [this, fn = inv.fn] { platform_->Submit(fn); });
  }
  sim_.RunUntil(config_.duration);

  // Drain the backlog: keep the platform's periodic machinery alive until
  // every request reached a terminal state (completed, timed out mid-queue,
  // or abandoned) or the drain cap is reached.
  const SimTime cap = config_.duration + config_.drain_cap;
  while (recorder_->finished_requests() < recorder_->total_requests() &&
         sim_.Now() < cap) {
    sim_.RunUntil(sim_.Now() + Seconds(1.0));
  }
  if (injector_) injector_->Stop();
  platform_->Stop();

  SimTime last_completion = config_.duration;
  for (const metrics::RequestRecord& r : recorder_->records()) {
    if (r.done()) last_completion = std::max(last_completion, r.completion);
  }
  recorder_->Close(std::max(last_completion, sim_.Now()));

  ExperimentResult res;
  res.system = system_name_;
  res.tier = trace::Name(config_.tier);
  res.makespan = last_completion;
  res.offered_rps = workload_.offered_rps;
  res.ideal_rps = workload_.ideal_rps;
  for (const platform::FunctionSpec& f : workload_.functions) {
    res.function_names.push_back(f.name);
    res.function_slos.push_back(f.slo);
  }
  res.throughput_rps = recorder_->WindowedThroughput(config_.duration);
  res.goodput_rps = recorder_->WindowedGoodput(config_.duration);
  res.recorder = std::move(recorder_);
  if (exporter_) exporter_->WriteFile(config_.trace_out);
  return res;
}

}  // namespace fluidfaas::harness
