// Tunable constants of the serverless platforms. Defaults encode the
// paper's numbers where it states them (30% time-sharing utilization
// threshold, 10-minute cold timeout, SLO scale 1.5) and conventional values
// elsewhere. The constants are fixed; every ablation bench overrides exactly
// one PlatformConfig field.
#pragma once

#include "common/types.h"
#include "model/costs.h"
#include "qos/qos_config.h"

namespace fluidfaas::platform {

/// Autoscaler / state-transition scan period.
inline constexpr SimDuration kAutoscalePeriod = Millis(500);

/// Instance-utilization threshold separating the exclusive-hot and
/// time-sharing states (§5.3: "not actively busy (below 30%)").
inline constexpr double kHotThreshold = 0.30;

/// Window over which instance utilization and arrival rates are averaged.
inline constexpr SimDuration kUtilWindow = Seconds(10.0);

/// Target headroom for scale-up: add capacity when the recent arrival
/// rate exceeds this fraction of deployed capacity (i.e. deploy toward
/// rate / factor). Bursty arrivals need substantial headroom to keep
/// queueing within the slim SLO slack.
inline constexpr double kScaleupLoadFactor = 0.60;

/// Batched serving: each item of a batch beyond the first adds this
/// fraction of the single-request time (PlatformConfig::max_batch).
inline constexpr double kBatchMarginalCost = 0.35;

struct PlatformConfig {
  /// SLO latency = slo_scale × solo latency on minimum MIG (§6).
  double slo_scale = 1.5;

  /// Keep-alive before a warm (CPU-resident) function turns cold (§5.3:
  /// "no requests for 10 minutes").
  SimDuration warm_timeout = Minutes(10.0);

  /// Exclusive keep-alive of the baselines: an idle instance holds its MIG
  /// slice this long after its last request (the policy behind Fig. 5).
  /// The paper's platforms use 10 minutes against hour-scale traces; the
  /// default here is scaled to the minutes-long simulated runs so one early
  /// placement does not starve a function for an entire experiment. The
  /// Fig. 5 bench restores the 10-minute window on a long trace.
  SimDuration exclusive_keepalive = Seconds(120.0);

  /// Maximum pipeline depth considered by the partitioner.
  int max_stages = 4;

  /// Enable hotness-aware eviction-based time sharing (FluidFaaS §5.3).
  bool enable_time_sharing = true;

  /// Enable pipeline construction (FluidFaaS §5.2); when false FluidFaaS
  /// degrades to monolithic-only placement (ablation).
  bool enable_pipelines = true;

  /// Enable pipeline → non-pipeline migration (§5.3).
  bool enable_migration = true;

  /// Batched serving (INFless-style): a stage pulls up to max_batch queued
  /// requests per pass; each extra item adds kBatchMarginalCost of the
  /// single-request time. 1 = no batching (the paper's evaluation setting).
  int max_batch = 1;

  /// Log-normal coefficient of variation applied to per-request service
  /// times (kernel-level variability); 0 disables jitter.
  double service_jitter_cv = 0.05;

  /// RNG seed for platform-side randomness (jitter).
  std::uint64_t seed = 42;

  /// Default retry behaviour when the bundle supplies no RetryPolicy:
  /// bounded retries with exponential backoff.
  struct RetryConfig {
    int max_retries = 2;
    SimDuration base_backoff = Millis(50);
    double backoff_multiplier = 2.0;
  };
  RetryConfig retry;

  /// Per-request enforcement timeout = request_timeout_scale × SLO, armed
  /// at submission. 0 disables enforcement (the default — timers would
  /// otherwise perturb the event order of fault-free runs).
  double request_timeout_scale = 0.0;

  /// QoS: central-queue discipline and admission control (DESIGN.md §9).
  /// The "fifo"/"none" defaults reproduce pre-QoS behaviour exactly.
  qos::QosConfig qos;

  model::TransferCostModel transfer;
  model::LoadCostModel load;
};

}  // namespace fluidfaas::platform
