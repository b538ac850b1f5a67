#include "platform/placement.h"

namespace fluidfaas::platform {

int PlacementPlan::NumSpawns() const {
  int n = 0;
  for (const PlacementAction& a : actions) {
    if (std::holds_alternative<SpawnAction>(a)) ++n;
  }
  return n;
}

void AddSpawn(PlacementPlan& plan, gpu::ClusterView& view, FunctionId fn,
              core::PipelinePlan pipeline, bool warm,
              SimDuration extra_load_delay) {
  for (const core::StageBinding& s : pipeline.stages) view.Reserve(s.slice);
  plan.actions.push_back(
      SpawnAction{fn, std::move(pipeline), warm, extra_load_delay});
}

void AddEvict(PlacementPlan& plan, gpu::ClusterView& view, InstanceId victim,
              const core::PipelinePlan& victim_plan) {
  for (const core::StageBinding& s : victim_plan.stages) {
    view.MarkPlannedFree(s.slice);
  }
  plan.actions.emplace_back(std::in_place_type<EvictAction>, victim);
}

PlacementPlan SpawnPlan(FunctionId fn, core::PipelinePlan pipeline, bool warm,
                        SimDuration extra_load_delay) {
  PlacementPlan plan;
  plan.actions.push_back(
      SpawnAction{fn, std::move(pipeline), warm, extra_load_delay});
  return plan;
}

}  // namespace fluidfaas::platform
