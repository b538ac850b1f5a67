// The road-not-taken baseline: solve fragmentation by *repartitioning* GPUs
// at runtime instead of pipelining around the fixed partition.
//
// The paper dismisses dynamic MIG reconfiguration because it takes minutes
// (§2.2, citing Miso); this bundle implements it anyway so the trade-off
// is measurable. It schedules monolithically (best-fit, like INFless-MIG),
// and when a function cannot be placed on any free slice while a fully idle
// GPU exists, it reconfigures that GPU to the partition that best serves the
// stranded demand — paying a kReconfigBlackout, during which the GPU's
// fresh slices are held by a sentinel binding. Each swap is published
// as sim::PartitionReconfigured; the Recorder syncs its slice table and
// counts the swap and its blackout off it.
//
// bench/ablation_reconfig.cpp races it against FluidFaaS: reconfiguration
// eventually rights the partition mix, but every correction costs minutes of
// capacity, which is exactly why FluidFaaS pipelines instead.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "platform/platform.h"
#include "platform/policy.h"

namespace fluidfaas::baselines {

/// Duration of one MIG reconfiguration (checkpoint + repartition + resume):
/// "several minutes" per the paper (§2.2) and Miso. The GPU serves nothing
/// for this long.
inline constexpr SimDuration kReconfigBlackout = Minutes(3.0);

/// Pick the maximal A100 partition that best hosts a monolithic demand of
/// `needed_memory`: most slices that fit it, then most total GPCs.
gpu::MigPartition BestRepartitionFor(Bytes needed_memory);

/// Reconfiguration state shared by the Repartition routing/scaling pair.
/// Must be heap-held by shared_ptr (the blackout-release callback keeps it
/// alive past the policies), hence enable_shared_from_this.
class RepartitionState
    : public std::enable_shared_from_this<RepartitionState> {
 public:
  /// Begin reconfiguring for `spec`'s demand: use a fully idle GPU when one
  /// exists, otherwise pick a GPU whose instances can be drained and
  /// reconfigure it once it empties. Returns false when nothing can even be
  /// scheduled.
  bool TryReconfigure(platform::PlatformCore& core,
                      const platform::FunctionSpec& spec);

  /// Execute the partition swap on an already-free GPU (blackout included).
  void ExecuteReconfig(platform::PlatformCore& core, GpuId gpu,
                       Bytes needed_memory);

  std::unordered_set<std::int32_t> reconfiguring;  // GpuId values
  struct DrainTarget {
    GpuId gpu;
    Bytes needed_memory;
  };
  std::vector<DrainTarget> drain_targets;
};

class RepartitionRouting final : public platform::RoutingPolicy {
 public:
  explicit RepartitionRouting(std::shared_ptr<RepartitionState> st)
      : st_(std::move(st)) {}
  bool Route(platform::PlatformCore& core, RequestId rid,
             FunctionId fn) override;

 private:
  std::shared_ptr<RepartitionState> st_;
};

class RepartitionScaling final : public platform::ScalingPolicy {
 public:
  explicit RepartitionScaling(std::shared_ptr<RepartitionState> st)
      : st_(std::move(st)) {}
  void Tick(platform::PlatformCore& core) override;

 private:
  std::shared_ptr<RepartitionState> st_;
};

platform::PolicyBundle MakeRepartitionBundle();

}  // namespace fluidfaas::baselines
