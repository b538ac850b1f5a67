// ESG baseline (Hui et al., HPDC '24): the state-of-the-art monolithic MIG
// scheduler this paper compares against, as a policy bundle over
// platform::PlatformCore.
//
// Structural properties reproduced from the paper's description:
//   * a serverless function is a single unit — every instance occupies one
//     MIG slice whose memory must hold the whole function (no pipelining);
//   * scale-up chooses slice sets by A* search with dual-blade pruning,
//     picking the most resource-efficient configuration that meets the SLO;
//   * exclusive keep-alive — an idle instance holds its slice for the full
//     keep-alive window, blocking other functions (the Fig. 5 behaviour) —
//     expressed as platform::FixedIdleKeepAlive;
//   * deadline-aware routing to the least-loaded instance.
//
// This header also hosts the INFless baseline (same keep-alive, simpler
// placement); both register through RegisterBaselineSchedulers().
#pragma once

#include <memory>
#include <vector>

#include "platform/platform.h"
#include "platform/policy.h"

namespace fluidfaas::baselines {

/// Shared state of the ESG routing/scaling pair: the A* search counter and
/// the scale-up machinery both sides invoke (routing scales up on the cold
/// path, scaling on deficit).
class EsgState {
 public:
  /// Free-slice counts per profile, cluster-wide.
  std::vector<int> FreeCounts(const platform::PlatformCore& core) const;

  /// Launch monolithic instances per the A* result; returns #launched.
  int ScaleUp(platform::PlatformCore& core,
              const platform::FunctionSpec& spec, double demand_rps);

  std::size_t searches = 0;
};

class EsgRouting final : public platform::RoutingPolicy {
 public:
  explicit EsgRouting(std::shared_ptr<EsgState> st) : st_(std::move(st)) {}
  bool Route(platform::PlatformCore& core, RequestId rid,
             FunctionId fn) override;

 private:
  std::shared_ptr<EsgState> st_;
};

class EsgScaling final : public platform::ScalingPolicy {
 public:
  explicit EsgScaling(std::shared_ptr<EsgState> st) : st_(std::move(st)) {}
  void Tick(platform::PlatformCore& core) override;

 private:
  std::shared_ptr<EsgState> st_;
};

/// INFless with MIG support (§6): the second monolithic baseline. Same
/// exclusive keep-alive; placement is simple best-fit by memory (no
/// SLO-aware search), routing is least-outstanding. Both policies are
/// stateless.
class InflessRouting final : public platform::RoutingPolicy {
 public:
  bool Route(platform::PlatformCore& core, RequestId rid,
             FunctionId fn) override;
};

class InflessScaling final : public platform::ScalingPolicy {
 public:
  void Tick(platform::PlatformCore& core) override;
};

platform::PolicyBundle MakeEsgBundle(std::shared_ptr<EsgState> state = nullptr);
platform::PolicyBundle MakeInflessBundle();

/// Register "ESG", "INFless" and "Repartition" in the platform::registry
/// factory. Idempotent.
void RegisterBaselineSchedulers();

}  // namespace fluidfaas::baselines
