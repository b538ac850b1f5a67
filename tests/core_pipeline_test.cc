#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <set>

#include "core/partitioner.h"
#include "model/zoo.h"

namespace fluidfaas::core {
namespace {

model::ComponentSpec Comp(int idx, Bytes mem, SimDuration t, Bytes out) {
  model::ComponentSpec c;
  c.id = ComponentId(idx);
  std::string name = "c";
  name += std::to_string(idx);
  c.name = std::move(name);
  c.cls = model::ComponentClass::kClassification;
  c.weights = mem / 2;
  c.activations = mem - mem / 2;
  c.latency_1gpc = t;
  c.serial_fraction = 0.0;
  c.output_bytes = out;
  return c;
}

model::AppDag Chain3(Bytes m0, Bytes m1, Bytes m2) {
  return model::AppDag("chain",
                       {Comp(0, m0, Millis(100), MiB(40)),
                        Comp(1, m1, Millis(100), MiB(40)),
                        Comp(2, m2, Millis(100), MiB(40))},
                       {{-1, 0}, {0, 1}, {1, 2}});
}

PipelineCandidate TwoStageCandidate(const model::AppDag& dag, int cut) {
  PipelineCandidate c;
  c.stages = {*MakeStagePlan(dag, 0, cut), *MakeStagePlan(dag, cut, 3)};
  return c;
}

TEST(MonolithicPlanTest, FitsAndBindsMetrics) {
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());
  auto dag = Chain3(GiB(4), GiB(4), GiB(4));  // 12 GB total
  // Fits the 2g (20 GB) and 4g, not the 1g.
  for (SliceId sid : cluster.AllSlices()) {
    auto plan = MonolithicPlanOnSlice(dag, cluster, sid);
    if (cluster.slice(sid).memory() >= GiB(12)) {
      ASSERT_TRUE(plan.has_value());
      EXPECT_EQ(plan->num_stages(), 1);
      EXPECT_EQ(plan->stages[0].hop_out, 0);
      EXPECT_EQ(plan->EndToEndLatency(), plan->BottleneckTime());
      // 0 serial fraction: time = 300 ms / gpcs.
      EXPECT_EQ(plan->stages[0].exec_time,
                Millis(300) / cluster.slice(sid).gpcs());
    } else {
      EXPECT_FALSE(plan.has_value());
    }
  }
}

TEST(PlanOnNodeTest, PrefersFewestGpcs) {
  auto cluster = gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition());
  auto dag = Chain3(GiB(6), GiB(6), GiB(6));
  // A 2-stage split [0,1) + [1,3): memories 6 GB and 12 GB -> 1g + 2g.
  auto cand = TwoStageCandidate(dag, 1);
  auto plan = PlanFirstFeasible(dag, {cand}, cluster, NodeId(0));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->TotalGpcs(), 3);  // 1g + 2g, not 4g
  EXPECT_EQ(plan->num_stages(), 2);
  // Distinct slices.
  EXPECT_NE(plan->stages[0].slice, plan->stages[1].slice);
}

TEST(PlanOnNodeTest, UsesDistinctSlicesEvenWhenOneWouldFitBoth) {
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());
  auto dag = Chain3(GiB(2), GiB(2), GiB(2));
  auto cand = TwoStageCandidate(dag, 1);
  auto plan = PlanFirstFeasible(dag, {cand}, cluster, NodeId(0));
  ASSERT_TRUE(plan.has_value());
  std::set<SliceId> used;
  for (const auto& s : plan->stages) used.insert(s.slice);
  EXPECT_EQ(used.size(), 2u);
}

TEST(PlanOnNodeTest, FailsWhenMemoryDoesNotFitAnywhere) {
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());
  auto dag = Chain3(GiB(45), GiB(2), GiB(2));  // stage 0 exceeds 40 GB
  auto cand = TwoStageCandidate(dag, 1);
  EXPECT_FALSE(PlanFirstFeasible(dag, {cand}, cluster, NodeId(0)).has_value());
}

TEST(PlanOnNodeTest, FailsWhenSlicesAreBusy) {
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());
  for (SliceId sid : cluster.AllSlices()) cluster.Bind(sid, InstanceId(1));
  auto dag = Chain3(GiB(2), GiB(2), GiB(2));
  auto cand = TwoStageCandidate(dag, 1);
  EXPECT_FALSE(PlanFirstFeasible(dag, {cand}, cluster, NodeId(0)).has_value());
}

TEST(PlanOnNodeTest, StaysOnOneNode) {
  // One free slice per node: a 2-stage pipeline cannot span nodes.
  auto cluster = gpu::Cluster::Uniform(2, 1, gpu::DefaultPartition());
  auto dag = Chain3(GiB(2), GiB(2), GiB(2));
  for (SliceId sid : cluster.AllSlices()) {
    const auto& s = cluster.slice(sid);
    if (s.profile() != gpu::MigProfile::k1g10gb) {
      cluster.Bind(sid, InstanceId(1));
    }
  }
  auto cand = TwoStageCandidate(dag, 1);
  for (int n = 0; n < 2; ++n) {
    EXPECT_FALSE(PlanFirstFeasible(dag, {cand}, cluster, NodeId(n)).has_value());
  }
}

TEST(PlanOnNodeTest, HopCostsComeFromCutTensors) {
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());
  auto dag = Chain3(GiB(2), GiB(2), GiB(2));
  auto cand = TwoStageCandidate(dag, 2);
  auto plan = PlanFirstFeasible(dag, {cand}, cluster, NodeId(0));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->stages[0].hop_out, model::HopCost(dag.CutBytes(2)));
  EXPECT_EQ(plan->stages[1].hop_out, 0);
}

TEST(PipelinePlanTest, BottleneckAndLatency) {
  PipelinePlan plan;
  plan.node = NodeId(0);
  StageBinding a, b;
  a.exec_time = Millis(100);
  a.hop_out = Millis(20);
  b.exec_time = Millis(90);
  b.hop_out = 0;
  a.plan.weights = GiB(1);
  b.plan.weights = GiB(2);
  a.profile = gpu::MigProfile::k1g10gb;
  b.profile = gpu::MigProfile::k2g20gb;
  plan.stages = {a, b};
  EXPECT_EQ(plan.BottleneckTime(), Millis(120));
  EXPECT_EQ(plan.EndToEndLatency(), Millis(210));
  EXPECT_EQ(plan.TotalWeights(), GiB(3));
  EXPECT_EQ(plan.TotalGpcs(), 3);
  EXPECT_EQ(plan.num_stages(), 2);
}

TEST(PlanFirstFeasibleTest, WalksRankedOrderThenNodes) {
  auto cluster = gpu::Cluster::Uniform(2, 1, gpu::DefaultPartition());
  auto dag = Chain3(GiB(8), GiB(8), GiB(8));  // 24 GB total: mono needs 3g+
  auto ranked = EnumerateRankedPipelines(dag, 3);

  // All slices free: the monolithic candidate (rank 0) deploys on node 0.
  auto plan = PlanFirstFeasible(dag, ranked, cluster);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->num_stages(), 1);
  EXPECT_EQ(plan->node, NodeId(0));

  // Scoped to node 1, the search never looks at node 0.
  plan = PlanFirstFeasible(dag, ranked, cluster, NodeId(1));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->node, NodeId(1));

  // Occupy node 0 entirely: the same candidate lands on node 1.
  for (SliceId sid : cluster.AllSlices()) {
    if (cluster.slice(sid).node == NodeId(0)) cluster.Bind(sid, InstanceId(1));
  }
  plan = PlanFirstFeasible(dag, ranked, cluster);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->node, NodeId(1));
  EXPECT_FALSE(PlanFirstFeasible(dag, ranked, cluster, NodeId(0)).has_value());

  // Leave only the two smaller slices on node 1: a pipeline is required.
  for (SliceId sid : cluster.AllSlices()) {
    const auto& s = cluster.slice(sid);
    if (s.node == NodeId(1) && s.profile() == gpu::MigProfile::k4g40gb) {
      cluster.Bind(sid, InstanceId(2));
    }
  }
  plan = PlanFirstFeasible(dag, ranked, cluster);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GT(plan->num_stages(), 1);

  // Nothing at all.
  for (SliceId sid : gpu::ClusterView(cluster).FreeSlices()) {
    cluster.Bind(sid, InstanceId(3));
  }
  EXPECT_FALSE(PlanFirstFeasible(dag, ranked, cluster).has_value());
}

TEST(PlanTest, PaperFigure4Scenario) {
  // Fig. 4: a function needing a 4g.40gb deploys as a 3g+1g or 2g+2g
  // pipeline on fragmented slices. Model: 34 GB total, split 17+17.
  std::vector<std::vector<gpu::MigPartition>> parts = {
      {gpu::MigPartition::Parse("3g.40gb+2g.20gb+2g.20gb")}};
  gpu::Cluster cluster(std::move(parts));
  auto dag = Chain3(GiB(9), GiB(9), GiB(16));  // 34 GB; splits 18|16
  ASSERT_EQ(MinMonolithicProfile(dag), gpu::MigProfile::k3g40gb);
  // Occupy the 3g: only the two 2g fragments remain.
  for (SliceId sid : cluster.AllSlices()) {
    if (cluster.slice(sid).profile() == gpu::MigProfile::k3g40gb) {
      cluster.Bind(sid, InstanceId(1));
    }
  }
  auto ranked = EnumerateRankedPipelines(dag, 3);
  auto plan = PlanFirstFeasible(dag, ranked, cluster);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->num_stages(), 2);  // the Fig. 4(d) outcome: 2g + 2g
  for (const auto& s : plan->stages) {
    EXPECT_EQ(s.profile, gpu::MigProfile::k2g20gb);
  }
}

}  // namespace
}  // namespace fluidfaas::core
