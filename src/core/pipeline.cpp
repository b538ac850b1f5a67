#include "core/pipeline.h"

#include <algorithm>
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

namespace {

// Bind `candidate` on node `node`, whose free slices in ascending id order
// are `free`.
std::optional<PipelinePlan> PlanOnFreeSlices(
    const model::AppDag& dag, const PipelineCandidate& candidate,
    const gpu::ClusterView& view, NodeId node,
    const std::vector<SliceId>& free) {
  const std::size_t num_stages = candidate.stages.size();
  if (free.size() < num_stages) return std::nullopt;
  const auto fits = [&](SliceId sid, std::size_t stage) {
    return view.slice(sid).memory() >= candidate.stages[stage].memory;
  };
  for (std::size_t i = 0; i < num_stages; ++i) {
    if (std::none_of(free.begin(), free.end(),
                     [&](SliceId sid) { return fits(sid, i); })) {
      return std::nullopt;
    }
  }

  // Exhaustive backtracking over distinct-slice assignments, keeping the
  // cheapest (fewest GPCs, then lowest ids). Stage counts are <= 5-6 and
  // nodes expose <= a few dozen slices, so this is microseconds of work.
  std::vector<SliceId> current(num_stages);
  std::vector<SliceId> best;
  int best_gpcs = std::numeric_limits<int>::max();
  const auto search = [&](const auto& self, std::size_t stage,
                          int gpcs) -> void {
    if (gpcs >= best_gpcs) return;  // cannot improve
    if (stage == num_stages) {
      // gpcs < best_gpcs here, so this binding is the new best.
      best = current;
      best_gpcs = gpcs;
      return;
    }
    const auto assigned = current.begin() + static_cast<std::ptrdiff_t>(stage);
    for (SliceId sid : free) {
      if (!fits(sid, stage)) continue;
      if (std::find(current.begin(), assigned, sid) != assigned) continue;
      current[stage] = sid;
      self(self, stage + 1, gpcs + view.slice(sid).gpcs());
    }
  };
  search(search, 0, 0);
  if (best.empty()) return std::nullopt;

  PipelinePlan plan;
  plan.node = node;
  plan.stages.reserve(num_stages);
  for (std::size_t i = 0; i < num_stages; ++i) {
    StageBinding b;
    b.plan = candidate.stages[i];
    b.slice = best[i];
    b.profile = view.slice(best[i]).profile();
    b.exec_time =
        StageLatencyOnGpcs(dag, b.plan.begin, b.plan.end, gpu::Gpcs(b.profile));
    if (i + 1 < num_stages) {
      b.hop_out = model::HopCost(dag.CutBytes(b.plan.end));
    }
    plan.stages.push_back(b);
  }
  return plan;
}

}  // namespace

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
    const gpu::ClusterView& view, std::optional<NodeId> node) {
  const int first = node ? node->value : 0;
  const int last = node ? node->value + 1 : view.num_nodes();
  // Each node's free slices, looked up on its first visit only.
  std::vector<std::optional<std::vector<SliceId>>> free(
      static_cast<std::size_t>(last - first));
  for (const PipelineCandidate& cand : candidates) {
    for (int n = first; n < last; ++n) {
      auto& node_free = free[static_cast<std::size_t>(n - first)];
      if (!node_free) node_free = view.FreeSlicesOnNode(NodeId(n));
      auto plan = PlanOnFreeSlices(dag, cand, view, NodeId(n), *node_free);
      if (plan) return plan;
    }
  }
  return std::nullopt;
}

}  // namespace fluidfaas::core
