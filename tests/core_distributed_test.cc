#include "core/ffs_distributed.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "metrics/recorder.h"
#include "model/zoo.h"

namespace fluidfaas::core {
namespace {

using platform::FunctionSpec;
using platform::MakeFunctionSpec;
using platform::PlatformConfig;

std::vector<FunctionSpec> Functions(model::Variant v) {
  std::vector<FunctionSpec> fns;
  int id = 0;
  for (int a = 0; a < model::kNumApps; ++a) {
    if (!model::IncludedInStudy(a, v)) continue;
    fns.push_back(
        MakeFunctionSpec(FunctionId(id++), a, v, model::BuildApp(a, v), 1.5));
  }
  return fns;
}

class DistributedTest : public ::testing::Test {
 protected:
  void Build(int nodes, int gpus, model::Variant v = model::Variant::kSmall) {
    cluster_ = std::make_unique<gpu::Cluster>(
        gpu::Cluster::Uniform(nodes, gpus, gpu::DefaultPartition()));
    recorder_ = std::make_unique<metrics::Recorder>(*cluster_);
    state_ = std::make_shared<DistState>();
    plat_ = std::make_unique<platform::PlatformCore>(
        sim_, *cluster_, Functions(v), PlatformConfig{},
        MakeDistributedBundle(state_));
    recorder_->SubscribeTo(sim_.bus());
    plat_->Start();
  }

  sim::Simulator sim_;
  std::unique_ptr<gpu::Cluster> cluster_;
  std::unique_ptr<metrics::Recorder> recorder_;
  std::shared_ptr<DistState> state_;
  std::unique_ptr<platform::PlatformCore> plat_;
};

TEST_F(DistributedTest, OneInvokerPerNode) {
  Build(3, 1);
  ASSERT_EQ(state_->invokers.size(), 3u);
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(state_->invokers[static_cast<std::size_t>(n)].domain.node(),
              NodeId(n));
  }
}

TEST_F(DistributedTest, ServesAndCompletes) {
  Build(2, 2);
  for (int i = 0; i < 60; ++i) {
    sim_.At(Millis(100) * i, [this, i] {
      plat_->Submit(FunctionId(i % 4));
    });
  }
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(recorder_->completed_requests(), 60u);
}

TEST_F(DistributedTest, LoadSpreadsAcrossInvokersUnderPressure) {
  Build(2, 2);
  // One hot function at a rate beyond a single node's comfort.
  for (int i = 0; i < 800; ++i) {
    sim_.At(Millis(25) * i, [this] { plat_->Submit(FunctionId(0)); });
  }
  sim_.RunUntil(Seconds(120));
  ASSERT_EQ(state_->invokers.size(), 2u);
  const std::size_t routed[] = {state_->invokers[0].routed,
                                state_->invokers[1].routed};
  EXPECT_EQ(routed[0] + routed[1], 800u);
  // Both invokers carried a real share.
  EXPECT_GT(routed[0], 800u / 10);
  EXPECT_GT(routed[1], 800u / 10);
}

TEST_F(DistributedTest, PipelinesStayNodeLocal) {
  Build(2, 2, model::Variant::kMedium);
  // Block every slice bigger than 1g so only pipelines can serve.
  for (SliceId sid : cluster_->AllSlices()) {
    if (cluster_->slice(sid).profile() != gpu::MigProfile::k1g10gb) {
      cluster_->Bind(sid, InstanceId(999));
    }
  }
  for (int i = 0; i < 150; ++i) {
    sim_.At(Millis(80) * i, [this] { plat_->Submit(FunctionId(0)); });
  }
  sim_.RunUntil(Seconds(60));
  EXPECT_GE(recorder_->pipelines_committed(), 1u);
  // Every live instance's slices share one node.
  for (const auto& spec : plat_->functions()) {
    for (auto* inst : plat_->InstancesOf(spec.id)) {
      NodeId node = cluster_->slice(inst->plan().stages[0].slice).node;
      for (const auto& s : inst->plan().stages) {
        EXPECT_EQ(cluster_->slice(s.slice).node, node);
      }
    }
  }
  sim_.RunUntil(Seconds(400));
  EXPECT_EQ(recorder_->completed_requests(), 150u);
}

TEST_F(DistributedTest, EvictionHappensPerInvoker) {
  Build(1, 1);  // one node, three slices, four functions
  SimTime t = 0;
  for (const auto& f : plat_->functions()) {
    sim_.At(t, [this, id = f.id] { plat_->Submit(id); });
    t += Seconds(3);
  }
  sim_.RunUntil(Seconds(120));
  EXPECT_GE(recorder_->transitions(sim::TransitionKind::kEviction), 1u);
  EXPECT_EQ(recorder_->completed_requests(), 4u);
}

TEST(DistributedHarnessTest, ComparableToCentralizedOnBalancedCluster) {
  harness::ExperimentConfig cfg;
  cfg.tier = trace::WorkloadTier::kMedium;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 4;
  cfg.duration = Seconds(90);
  cfg.seed = 77;
  cfg.system = harness::SystemKind::kFluidFaas;
  auto central = harness::RunExperiment(cfg);
  cfg.system = harness::SystemKind::kFluidFaasDistributed;
  auto dist = harness::RunExperiment(cfg);
  EXPECT_EQ(dist.system, "FluidFaaS-dist");
  // Same arrivals; the decentralized form should be in the same ballpark
  // (within 25% throughput) on a balanced cluster.
  EXPECT_NEAR(dist.throughput_rps, central.throughput_rps,
              0.25 * central.throughput_rps);
  EXPECT_GT(dist.recorder->pipelines_committed(), 0u);
}

}  // namespace
}  // namespace fluidfaas::core
