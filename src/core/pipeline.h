// Pipeline deployment: mapping a ranked PipelineCandidate onto concrete free
// MIG slices of one node (paper §5.2.2, the invoker's local scheduling).
//
// All stages of one instance must live on the same node because inter-stage
// tensors travel through that node's host shared memory; slices may come
// from different GPUs on the node (host memory is equally reachable), which
// is exactly how fragmented slices across GPUs become usable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/partitioner.h"
#include "gpu/cluster_view.h"
#include "model/app.h"
#include "model/costs.h"

namespace fluidfaas::core {

/// One stage bound to a concrete slice.
struct StageBinding {
  StagePlan plan;
  SliceId slice;
  gpu::MigProfile profile;      // profile of `slice`
  SimDuration exec_time = 0;    // stage latency on this profile
  SimDuration hop_out = 0;      // transfer into the next stage (0 for last)
};

/// A fully planned (but not yet launched) pipeline deployment.
struct PipelinePlan {
  std::vector<StageBinding> stages;
  NodeId node;

  int num_stages() const { return static_cast<int>(stages.size()); }

  /// Steady-state cycle time: the slowest stage (exec + outbound hop)
  /// bounds throughput (paper §5.2: "use the maximum execution time among
  /// them as the stage's execution time").
  SimDuration BottleneckTime() const;

  /// End-to-end service latency of one request through an idle pipeline.
  SimDuration EndToEndLatency() const;

  /// Total weight bytes (reload cost accounting).
  Bytes TotalWeights() const;

  /// GPCs bound by this plan.
  int TotalGpcs() const;

  std::string ToString() const;
};

/// Single-stage plan hosting the whole DAG on one specific slice; nullopt
/// when the slice's memory cannot hold the function.
std::optional<PipelinePlan> MonolithicPlanOnSlice(
    const model::AppDag& dag, const gpu::ClusterView& view, SliceId slice);

/// Single-stage plan on the smallest free slice (through the view, on
/// `node` when given) that fits the whole DAG — the shared "spawn from the
/// smallest slice" step of FluidFaaS, INFless, and the repartition baseline.
std::optional<PipelinePlan> MonolithicPlanOnSmallestSlice(
    const model::AppDag& dag, const gpu::ClusterView& view,
    std::optional<NodeId> node = std::nullopt);

/// Walk `candidates` in ranked order across all nodes (lowest node id
/// first), or across `node` alone when given, and return the first
/// deployable plan — the paper's launch procedure ("evaluated in order ...
/// until a suitable pipeline is found"). A candidate binds to free slices
/// of one node as seen through `view` (a bare Cluster converts to an
/// overlay-free view) by exhaustive backtracking over per-stage feasible
/// slices (stage counts are tiny); among feasible bindings it prefers the
/// fewest total GPCs, then lowest slice ids — i.e. leave big slices free
/// for functions that need them. Hops cost model::HopCost of the cut
/// tensor. Does NOT bind or reserve the slices; callers stage the plan into
/// a platform::PlacementPlan and commit.
std::optional<PipelinePlan> PlanFirstFeasible(
    const model::AppDag& dag,
    const std::vector<PipelineCandidate>& candidates,
    const gpu::ClusterView& view, std::optional<NodeId> node = std::nullopt);

}  // namespace fluidfaas::core
