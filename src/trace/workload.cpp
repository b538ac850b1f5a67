#include "trace/workload.h"

#include <numeric>

#include "common/error.h"
#include "model/zoo.h"

namespace fluidfaas::trace {

const char* Name(WorkloadTier tier) {
  switch (tier) {
    case WorkloadTier::kLight:
      return "light";
    case WorkloadTier::kMedium:
      return "medium";
    case WorkloadTier::kHeavy:
      return "heavy";
  }
  return "?";
}

model::Variant VariantOf(WorkloadTier tier) {
  switch (tier) {
    case WorkloadTier::kLight:
      return model::Variant::kSmall;
    case WorkloadTier::kMedium:
      return model::Variant::kMedium;
    case WorkloadTier::kHeavy:
      return model::Variant::kLarge;
  }
  return model::Variant::kSmall;
}

double DefaultLoadFactor(WorkloadTier tier) {
  switch (tier) {
    case WorkloadTier::kLight:
      return 0.25;
    case WorkloadTier::kMedium:
      return 0.52;
    case WorkloadTier::kHeavy:
      return 0.52;
  }
  return 0.35;
}

Workload MakeWorkload(WorkloadTier tier, const gpu::Cluster& cluster,
                      const WorkloadParams& params) {
  Workload w;
  w.tier = tier;
  const model::Variant variant = VariantOf(tier);

  int next_id = 0;
  for (int a = 0; a < model::kNumApps; ++a) {
    if (!model::IncludedInStudy(a, variant)) continue;
    w.functions.push_back(platform::MakeFunctionSpec(
        FunctionId(next_id++), a, variant, model::BuildApp(a, variant),
        params.slo_scale, params.max_stages));
  }
  FFS_CHECK(!w.functions.empty());

  // Ideal work-conserving throughput for this mix: total GPCs over the
  // popularity-weighted mean single-GPC demand (seconds of 1-GPC work).
  const int n = static_cast<int>(w.functions.size());
  const std::vector<double> shares = PopularityShares(n, params.seed);
  double mean_demand_s = 0.0;
  for (int i = 0; i < n; ++i) {
    mean_demand_s += shares[static_cast<std::size_t>(i)] *
                     ToSeconds(w.functions[static_cast<std::size_t>(i)]
                                   .dag.TotalLatencyOnGpcs(1));
  }
  w.ideal_rps = static_cast<double>(cluster.TotalGpcs()) / mean_demand_s;

  const double factor =
      params.load_factor > 0 ? params.load_factor : DefaultLoadFactor(tier);
  w.offered_rps = factor * w.ideal_rps;

  AzureLikeParams tp;
  tp.total_rps = w.offered_rps;
  tp.duration = params.duration;
  tp.seed = params.seed;
  w.trace = AzureLikeTrace(n, tp);
  return w;
}

}  // namespace fluidfaas::trace
