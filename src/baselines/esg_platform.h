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
// placement).
#pragma once

#include "platform/platform.h"
#include "platform/policy.h"

namespace fluidfaas::baselines {

/// ESG routing runs the A* scale-up on the cold path, ESG scaling on
/// deficit. Like INFless's, both policies are stateless.
class EsgRouting final : public platform::RoutingPolicy {
 public:
  bool Route(platform::PlatformCore& core, RequestId rid,
             FunctionId fn) override;
};

class EsgScaling final : public platform::ScalingPolicy {
 public:
  void Tick(platform::PlatformCore& core) override;
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

platform::PolicyBundle MakeEsgBundle();
platform::PolicyBundle MakeInflessBundle();

}  // namespace fluidfaas::baselines
