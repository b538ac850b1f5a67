// Placement transactions (DESIGN.md §8): plans built against a ClusterView
// snapshot must commit atomically against live state — and abort with a
// typed cause, applying nothing, when live state drifted after planning.
#include "platform/placement.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.h"
#include "gpu/cluster_view.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/platform.h"
#include "platform/policy.h"

namespace fluidfaas::platform {
namespace {

std::vector<FunctionSpec> StudyFunctions() {
  std::vector<FunctionSpec> fns;
  int id = 0;
  for (auto& dag : model::BuildStudyApps(model::Variant::kSmall)) {
    const int app = id;
    fns.push_back(MakeFunctionSpec(FunctionId(id++), app,
                                   model::Variant::kSmall, dag, 1.5));
  }
  return fns;
}

class RejectRouting final : public RoutingPolicy {
 public:
  bool Route(PlatformCore&, RequestId, FunctionId) override { return false; }
};

class NoScaling final : public ScalingPolicy {
 public:
  void Tick(PlatformCore&) override {}
};

PolicyBundle InertBundle() {
  PolicyBundle b;
  b.routing = std::make_unique<RejectRouting>();
  b.scaling = std::make_unique<NoScaling>();
  return b;
}

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest()
      : cluster_(gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition())),
        recorder_(cluster_),
        plat_(sim_, cluster_, StudyFunctions(), PlatformConfig{},
              InertBundle()) {
    recorder_.SubscribeTo(sim_.bus());
  }

  const FunctionSpec& spec(int fn) const {
    return plat_.function(FunctionId(fn));
  }

  /// Single-spawn plan for `fn` on the view's smallest feasible slice.
  PlacementPlan PlanSpawn(gpu::ClusterView& view, int fn) {
    auto plan = core::MonolithicPlanOnSmallestSlice(spec(fn).dag, view);
    EXPECT_TRUE(plan.has_value());
    PlacementPlan txn;
    AddSpawn(txn, view, FunctionId(fn), std::move(*plan), false);
    return txn;
  }

  /// A 2-stage plan for `fn` on node 0 through `view`.
  core::PipelinePlan PlanTwoStages(const gpu::ClusterView& view, int fn) {
    for (const core::PipelineCandidate& c : spec(fn).ranked_pipelines) {
      if (c.num_stages() != 2) continue;
      auto plan = core::TryPlanOnNode(spec(fn).dag, c, view, NodeId(0),
                                      model::TransferCostModel{});
      if (plan) return std::move(*plan);
    }
    ADD_FAILURE() << "no 2-stage plan for fn " << fn;
    return {};
  }

  static SliceId SpawnSlice(const PlacementPlan& txn, std::size_t action) {
    return std::get<SpawnAction>(txn.actions[action])
        .pipeline.stages.front()
        .slice;
  }

  sim::Simulator sim_;
  gpu::Cluster cluster_;
  metrics::Recorder recorder_;
  PlatformCore plat_;
};

TEST_F(PlacementTest, CommitSpawnsAndPublishesCounters) {
  gpu::ClusterView view(cluster_);
  const PlacementPlan txn = PlanSpawn(view, 0);
  const SliceId sid = SpawnSlice(txn, 0);
  const CommitResult result = plat_.Commit(txn);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.spawned.size(), 1u);
  EXPECT_EQ(cluster_.slice(sid).occupant, result.spawned.front()->id());
  EXPECT_EQ(recorder_.plans_committed(), 1u);
  EXPECT_EQ(recorder_.spawns_committed(), 1u);
  EXPECT_EQ(recorder_.plans_aborted(), 0u);
  EXPECT_EQ(recorder_.PlanConflictRate(), 0.0);
}

TEST_F(PlacementTest, RecorderCountsPipelinesAmongCommittedSpawns) {
  gpu::ClusterView view(cluster_);
  PlacementPlan txn;
  // One plan: a 2-stage spawn of fn 0 and a monolithic spawn of fn 1.
  AddSpawn(txn, view, FunctionId(0), PlanTwoStages(view, 0), false);
  auto mono = core::MonolithicPlanOnSmallestSlice(spec(1).dag, view);
  ASSERT_TRUE(mono.has_value());
  AddSpawn(txn, view, FunctionId(1), std::move(*mono), false);

  ASSERT_TRUE(plat_.Commit(txn).ok());
  EXPECT_EQ(recorder_.spawns_committed(), 2u);
  EXPECT_EQ(recorder_.pipelines_committed(), 1u);
  EXPECT_EQ(recorder_.reconfigurations(), 0u);
}

TEST_F(PlacementTest, RecorderCountsRepartitionAndItsBlackout) {
  PlacementPlan txn;
  txn.actions.emplace_back(std::in_place_type<RepartitionAction>, GpuId(1),
                           gpu::MigPartition::Parse("7g.80gb"), Seconds(137),
                           InstanceId());
  ASSERT_TRUE(plat_.Commit(txn).ok());
  EXPECT_EQ(recorder_.reconfigurations(), 1u);
  EXPECT_EQ(recorder_.reconfiguration_blackout(), Seconds(137));
  EXPECT_EQ(recorder_.spawns_committed(), 0u);
}

TEST_F(PlacementTest, AbortedPlanAddsNoSchedulerCounts) {
  gpu::ClusterView setup(cluster_);
  const PlacementPlan seed = PlanSpawn(setup, 0);
  const GpuId busy = cluster_.slice(SpawnSlice(seed, 0)).gpu;
  ASSERT_TRUE(plat_.Commit(seed).ok());

  // A pipelined spawn plus a repartition of the occupied GPU: the
  // repartition aborts the plan, so neither is counted.
  gpu::ClusterView view(cluster_);
  PlacementPlan txn;
  AddSpawn(txn, view, FunctionId(1), PlanTwoStages(view, 1), false);
  txn.actions.emplace_back(std::in_place_type<RepartitionAction>, busy,
                           gpu::MigPartition::Parse("7g.80gb"), Seconds(137),
                           InstanceId());
  EXPECT_EQ(plat_.Commit(txn).cause, sim::PlanAbortCause::kGpuNotIdle);
  EXPECT_EQ(recorder_.plans_aborted(), 1u);
  EXPECT_EQ(recorder_.spawns_committed(), 1u);
  EXPECT_EQ(recorder_.pipelines_committed(), 0u);
  EXPECT_EQ(recorder_.reconfigurations(), 0u);
  EXPECT_EQ(recorder_.reconfiguration_blackout(), 0);
}

TEST_F(PlacementTest, AbortWhenReservedSliceFailsAfterPlanning) {
  gpu::ClusterView view(cluster_);
  const PlacementPlan txn = PlanSpawn(view, 0);
  const SliceId sid = SpawnSlice(txn, 0);
  // Live state drifts between plan and commit: the slice faults.
  cluster_.MarkFailed(sid);
  const CommitResult result = plat_.Commit(txn);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.cause, sim::PlanAbortCause::kSliceFailed);
  EXPECT_TRUE(result.spawned.empty());
  EXPECT_TRUE(plat_.AllInstances().empty());
  EXPECT_EQ(recorder_.plans_aborted(), 1u);
  EXPECT_EQ(recorder_.plans_aborted_by(sim::PlanAbortCause::kSliceFailed), 1u);
}

TEST_F(PlacementTest, AbortWhenRepartitionRetiresReservedSlice) {
  gpu::ClusterView view(cluster_);
  const PlacementPlan txn = PlanSpawn(view, 0);
  const SliceId sid = SpawnSlice(txn, 0);
  // The reserved slice's GPU is repartitioned away; the id is now dead.
  cluster_.RepartitionGpu(cluster_.slice(sid).gpu,
                          gpu::MigPartition::Parse("7g.80gb"));
  const CommitResult result = plat_.Commit(txn);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.cause, sim::PlanAbortCause::kSliceRetired);
  EXPECT_TRUE(plat_.AllInstances().empty());
}

TEST_F(PlacementTest, SecondOfTwoRacingPlansAborts) {
  // Two planners snapshot the same state and pick the same smallest slice —
  // the optimistic-concurrency race FluidFaaS-dist resolves by re-planning.
  gpu::ClusterView view_a(cluster_);
  gpu::ClusterView view_b(cluster_);
  const PlacementPlan plan_a = PlanSpawn(view_a, 0);
  const PlacementPlan plan_b = PlanSpawn(view_b, 1);
  ASSERT_EQ(SpawnSlice(plan_a, 0), SpawnSlice(plan_b, 0));

  ASSERT_TRUE(plat_.Commit(plan_a).ok());
  const CommitResult result = plat_.Commit(plan_b);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.cause, sim::PlanAbortCause::kSliceConflict);
  EXPECT_EQ(plat_.AllInstances().size(), 1u);
  EXPECT_EQ(recorder_.plans_committed(), 1u);
  EXPECT_EQ(recorder_.plans_aborted(), 1u);
  EXPECT_DOUBLE_EQ(recorder_.PlanConflictRate(), 0.5);
}

TEST_F(PlacementTest, AbortAppliesNothingFromMultiActionPlan) {
  // Plan two spawns; fail the second one's slice before commit. Atomicity
  // means the first spawn must NOT have happened either.
  gpu::ClusterView view(cluster_);
  PlacementPlan txn;
  auto first = core::MonolithicPlanOnSmallestSlice(spec(0).dag, view);
  ASSERT_TRUE(first.has_value());
  const SliceId first_sid = first->stages.front().slice;
  AddSpawn(txn, view, FunctionId(0), std::move(*first), false);
  auto second = core::MonolithicPlanOnSmallestSlice(spec(1).dag, view);
  ASSERT_TRUE(second.has_value());
  const SliceId second_sid = second->stages.front().slice;
  ASSERT_NE(first_sid, second_sid);  // the view reserved the first pick
  AddSpawn(txn, view, FunctionId(1), std::move(*second), false);

  cluster_.MarkFailed(second_sid);
  const CommitResult result = plat_.Commit(txn);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.cause, sim::PlanAbortCause::kSliceFailed);
  EXPECT_TRUE(plat_.AllInstances().empty());
  EXPECT_TRUE(cluster_.slice(first_sid).free());  // nothing half-bound
}

TEST_F(PlacementTest, EvictThenSpawnReusesVictimSlice) {
  // Occupy every slice big enough for fn 0, then plan evict+spawn.
  gpu::ClusterView setup(cluster_);
  const PlacementPlan seed = PlanSpawn(setup, 0);
  const SliceId sid = SpawnSlice(seed, 0);
  const CommitResult seeded = plat_.Commit(seed);
  ASSERT_TRUE(seeded.ok());
  Instance* victim = seeded.spawned.front();
  sim_.Run();  // finish loading so the victim is idle

  gpu::ClusterView view(cluster_);
  PlacementPlan txn;
  AddEvict(txn, view, victim->id(), victim->plan());
  // The victim's slice is planned-free in the view: plan the spawn on it.
  auto plan = core::MonolithicPlanOnSlice(spec(1).dag, view, sid);
  ASSERT_TRUE(plan.has_value());
  AddSpawn(txn, view, FunctionId(1), std::move(*plan), false);

  const CommitResult result = plat_.Commit(txn);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(cluster_.slice(sid).occupant, result.spawned.front()->id());
  EXPECT_EQ(victim->state(), InstanceState::kRetired);
}

TEST_F(PlacementTest, AbortWhenEvictVictimAlreadyRetired) {
  gpu::ClusterView setup(cluster_);
  const CommitResult seeded = plat_.Commit(PlanSpawn(setup, 0));
  ASSERT_TRUE(seeded.ok());
  Instance* victim = seeded.spawned.front();
  sim_.Run();

  gpu::ClusterView view(cluster_);
  PlacementPlan txn;
  AddEvict(txn, view, victim->id(), victim->plan());
  plat_.RetireInstance(victim);  // someone else got there first
  const CommitResult result = plat_.Commit(txn);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.cause, sim::PlanAbortCause::kVictimGone);
}

TEST_F(PlacementTest, ViewOverlayHidesReservationsFromQueries) {
  gpu::ClusterView view(cluster_);
  const auto before = view.FreeSlices().size();
  const auto sid = view.SmallestFreeSliceWithMemory(GiB(1));
  ASSERT_TRUE(sid.has_value());
  view.Reserve(*sid);
  EXPECT_EQ(view.FreeSlices().size(), before - 1);
  EXPECT_TRUE(view.IsReserved(*sid));
  const auto next = view.SmallestFreeSliceWithMemory(GiB(1));
  ASSERT_TRUE(next.has_value());
  EXPECT_NE(*next, *sid);
  // The live cluster is untouched by view reservations.
  EXPECT_TRUE(cluster_.slice(*sid).free());
}

}  // namespace
}  // namespace fluidfaas::platform
