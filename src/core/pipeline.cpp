#include "core/pipeline.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace fluidfaas::core {

SimDuration PipelinePlan::BottleneckTime() const {
  SimDuration worst = 0;
  for (const StageBinding& s : stages) {
    worst = std::max(worst, s.exec_time + s.hop_out);
  }
  return worst;
}

SimDuration PipelinePlan::EndToEndLatency() const {
  SimDuration t = 0;
  for (const StageBinding& s : stages) t += s.exec_time + s.hop_out;
  return t;
}

Bytes PipelinePlan::TotalWeights() const {
  Bytes b = 0;
  for (const StageBinding& s : stages) b += s.plan.weights;
  return b;
}

int PipelinePlan::TotalGpcs() const {
  int g = 0;
  for (const StageBinding& s : stages) g += gpu::Gpcs(s.profile);
  return g;
}

std::string PipelinePlan::ToString() const {
  std::ostringstream os;
  os << "node " << node.value << " {";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageBinding& s = stages[i];
    if (i) os << " -> ";
    os << "[" << s.plan.begin << "," << s.plan.end << ")@slice"
       << s.slice.value << "(" << gpu::Name(s.profile) << ")";
  }
  os << "}";
  return os.str();
}

std::optional<PipelinePlan> TryPlanOnNode(
    const model::AppDag& dag, const PipelineCandidate& candidate,
    const gpu::ClusterView& view, NodeId node,
    const model::TransferCostModel& transfer) {
  const std::vector<SliceId> free = view.FreeSlicesOnNode(node);
  if (free.size() < candidate.stages.size()) return std::nullopt;

  // Per-stage feasible slice lists (memory fit).
  std::vector<std::vector<SliceId>> feasible(candidate.stages.size());
  for (std::size_t i = 0; i < candidate.stages.size(); ++i) {
    for (SliceId sid : free) {
      if (view.slice(sid).memory() >= candidate.stages[i].memory) {
        feasible[i].push_back(sid);
      }
    }
    if (feasible[i].empty()) return std::nullopt;
  }

  // Exhaustive backtracking over distinct-slice assignments, keeping the
  // cheapest (fewest GPCs, then lowest ids). Stage counts are <= 5-6 and
  // nodes expose <= a few dozen slices, so this is microseconds of work.
  std::vector<SliceId> current(candidate.stages.size());
  std::vector<SliceId> best;
  int best_gpcs = std::numeric_limits<int>::max();
  std::vector<bool> used(view.num_slices(), false);

  std::function<void(std::size_t, int)> search = [&](std::size_t stage,
                                                     int gpcs) {
    if (gpcs >= best_gpcs) return;  // cannot improve
    if (stage == candidate.stages.size()) {
      std::vector<SliceId> ids = current;
      if (gpcs < best_gpcs ||
          (gpcs == best_gpcs &&
           (best.empty() || ids < best))) {
        best = ids;
        best_gpcs = gpcs;
      }
      return;
    }
    for (SliceId sid : feasible[stage]) {
      const std::size_t idx = static_cast<std::size_t>(sid.value);
      if (used[idx]) continue;
      used[idx] = true;
      current[stage] = sid;
      search(stage + 1, gpcs + view.slice(sid).gpcs());
      used[idx] = false;
    }
  };
  search(0, 0);
  if (best.empty()) return std::nullopt;

  PipelinePlan plan;
  plan.node = node;
  plan.stages.reserve(candidate.stages.size());
  for (std::size_t i = 0; i < candidate.stages.size(); ++i) {
    StageBinding b;
    b.plan = candidate.stages[i];
    b.slice = best[i];
    b.profile = view.slice(best[i]).profile();
    b.exec_time =
        StageLatencyOnGpcs(dag, b.plan.begin, b.plan.end, gpu::Gpcs(b.profile));
    if (i + 1 < candidate.stages.size()) {
      b.hop_out = transfer.HopCost(dag.CutBytes(b.plan.end));
    }
    plan.stages.push_back(b);
  }
  return plan;
}

std::optional<PipelinePlan> MonolithicPlanOnSlice(const model::AppDag& dag,
                                                  const gpu::ClusterView& view,
                                                  SliceId slice) {
  const gpu::MigSlice& s = view.slice(slice);
  if (s.memory() < dag.TotalMemory()) return std::nullopt;
  auto stage = MakeStagePlan(dag, 0, dag.size());
  if (!stage) return std::nullopt;

  PipelinePlan plan;
  plan.node = s.node;
  StageBinding b;
  b.plan = *stage;
  b.slice = slice;
  b.profile = s.profile();
  b.exec_time = StageLatencyOnGpcs(dag, 0, dag.size(), s.gpcs());
  b.hop_out = 0;
  plan.stages.push_back(b);
  return plan;
}

std::optional<PipelinePlan> MonolithicPlanOnSmallestSlice(
    const model::AppDag& dag, const gpu::ClusterView& view,
    std::optional<NodeId> node) {
  const auto sid = view.SmallestFreeSliceWithMemory(dag.TotalMemory(), node);
  if (!sid) return std::nullopt;
  return MonolithicPlanOnSlice(dag, view, *sid);
}

std::optional<PipelinePlan> PlanFirstFeasible(
    const model::AppDag& dag,
    const std::vector<PipelineCandidate>& candidates,
    const gpu::ClusterView& view, const model::TransferCostModel& transfer,
    std::optional<NodeId> node) {
  const int first = node ? node->value : 0;
  const int last = node ? node->value + 1 : view.num_nodes();
  for (const PipelineCandidate& cand : candidates) {
    for (int n = first; n < last; ++n) {
      auto plan = TryPlanOnNode(dag, cand, view, NodeId(n), transfer);
      if (plan) return plan;
    }
  }
  return std::nullopt;
}

}  // namespace fluidfaas::core
