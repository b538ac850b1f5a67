#include "baselines/repartition_platform.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "model/zoo.h"
#include "sim/event_bus.h"

namespace fluidfaas::baselines {
namespace {

using platform::FunctionSpec;
using platform::MakeFunctionSpec;
using platform::PlatformConfig;

TEST(ClusterRepartitionTest, RetiresOldIdsAndMintsNewOnes) {
  auto cluster = gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition());
  const auto before = cluster.AllSlices();
  ASSERT_EQ(before.size(), 6u);
  const int old_gpcs = cluster.TotalGpcs();

  auto fresh = cluster.RepartitionGpu(
      GpuId(0), gpu::MigPartition::Parse("3g.40gb+3g.40gb"));
  ASSERT_EQ(fresh.size(), 2u);
  // Old ids 0..2 are dead; new ids appended.
  EXPECT_TRUE(cluster.IsDead(SliceId(0)));
  EXPECT_TRUE(cluster.IsDead(SliceId(2)));
  EXPECT_FALSE(cluster.IsDead(SliceId(3)));
  EXPECT_THROW(cluster.slice(SliceId(0)), FfsError);
  EXPECT_EQ(cluster.AllSlices().size(), 5u);  // 2 new + 3 on GPU 1
  EXPECT_EQ(cluster.TotalGpcs(), old_gpcs - 7 + 6);  // 3g+3g = 6 GPCs
  for (SliceId sid : fresh) {
    EXPECT_EQ(cluster.slice(sid).profile(), gpu::MigProfile::k3g40gb);
    EXPECT_TRUE(cluster.slice(sid).free());
  }
}

TEST(ClusterRepartitionTest, RefusesWithBoundSlices) {
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());
  cluster.Bind(SliceId(1), InstanceId(5));
  EXPECT_THROW(
      cluster.RepartitionGpu(GpuId(0), gpu::MigPartition::Parse("7g.80gb")),
      FfsError);
}

TEST(ClusterRepartitionTest, RecorderSyncTracksNewSlices) {
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());
  sim::EventBus bus;
  metrics::Recorder rec(cluster);
  rec.SubscribeTo(bus);
  const auto target = gpu::MigPartition::Parse("7g.80gb");
  auto fresh = cluster.RepartitionGpu(GpuId(0), target);
  bus.Publish(sim::PartitionReconfigured{GpuId(0), 0, target.ToString(), 0});
  const InstanceId iid(1);
  bus.Publish(sim::SliceBound{fresh[0], iid, Seconds(1)});
  bus.Publish(sim::SliceBusyBegin{fresh[0], iid, Seconds(1)});
  bus.Publish(sim::SliceBusyEnd{fresh[0], iid, Seconds(3)});
  bus.Publish(sim::SliceReleased{fresh[0], iid, Seconds(3)});
  rec.Close(Seconds(4));
  EXPECT_EQ(rec.MigTime(), Seconds(2));
  EXPECT_EQ(rec.total_gpcs(), 7);
}

TEST(BestPartitionTest, PicksMostFittingSlices) {
  // A 35 GB demand: 3g.40gb+4g.40gb offers two fitting slices.
  const auto p = BestRepartitionFor(GiB(35));
  EXPECT_EQ(p.Profiles(),
            (std::vector<gpu::MigProfile>{gpu::MigProfile::k3g40gb,
                                          gpu::MigProfile::k4g40gb}));
  // A 50 GB demand: only 7g.80gb fits.
  const auto q = BestRepartitionFor(GiB(50));
  EXPECT_EQ(q.Profiles(),
            (std::vector<gpu::MigProfile>{gpu::MigProfile::k7g80gb}));
  // A tiny demand: every slice fits; the 1g x7 layout maximizes count.
  const auto r = BestRepartitionFor(GiB(2));
  EXPECT_EQ(r.slice_count(), 7u);
}

class RepartitionPlatformTest : public ::testing::Test {
 protected:
  void Build(model::Variant v, const std::string& partition_spec =
                                   "4g.40gb+2g.20gb+1g.10gb") {
    cluster_ = std::make_unique<gpu::Cluster>(gpu::Cluster::Uniform(
        1, 2, gpu::MigPartition::Parse(partition_spec)));
    recorder_ = std::make_unique<metrics::Recorder>(*cluster_);
    std::vector<FunctionSpec> fns;
    fns.push_back(MakeFunctionSpec(FunctionId(0), 0, v, model::BuildApp(0, v),
                                   1.5));
    plat_ = std::make_unique<platform::PlatformCore>(
        sim_, *cluster_, std::move(fns), PlatformConfig{},
        MakeRepartitionBundle());
    recorder_->SubscribeTo(sim_.bus());
    plat_->Start();
  }

  sim::Simulator sim_;
  std::unique_ptr<gpu::Cluster> cluster_;
  std::unique_ptr<metrics::Recorder> recorder_;
  std::unique_ptr<platform::PlatformCore> plat_;
};

TEST_F(RepartitionPlatformTest, ServesWithoutReconfigWhenSlicesFit) {
  Build(model::Variant::kSmall);
  for (int i = 0; i < 10; ++i) {
    sim_.At(Millis(200) * i, [this] { plat_->Submit(FunctionId(0)); });
  }
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(recorder_->completed_requests(), 10u);
  EXPECT_EQ(recorder_->reconfigurations(), 0u);
}

TEST_F(RepartitionPlatformTest, ReconfiguresWhenFragmentedOutAndPaysMinutes) {
  // Large variant needs a 40 GB slice, but every GPU is partitioned into
  // 2g/1g fragments: GPU reconfiguration is the only way out — and it
  // costs minutes of blackout before the first request can run.
  Build(model::Variant::kLarge, "2g.20gb+2g.20gb+2g.20gb+1g.10gb");
  for (int i = 0; i < 30; ++i) {
    sim_.At(Millis(500) * i, [this] { plat_->Submit(FunctionId(0)); });
  }
  sim_.RunUntil(Seconds(60));
  EXPECT_GE(recorder_->reconfigurations(), 1u);
  EXPECT_EQ(recorder_->completed_requests(), 0u);  // inside the blackout
  sim_.RunUntil(Minutes(12));
  // Every swap blacks its GPU out for the fixed reconfiguration time.
  EXPECT_EQ(recorder_->reconfiguration_blackout(),
            static_cast<SimDuration>(recorder_->reconfigurations()) *
                kReconfigBlackout);
  // After the blackout the reconfigured GPU serves the whole backlog.
  EXPECT_EQ(recorder_->completed_requests(), 30u);
}

TEST(RepartitionHarnessTest, RunsThroughTheHarness) {
  harness::ExperimentConfig cfg;
  cfg.system = harness::SystemKind::kRepartition;
  cfg.tier = trace::WorkloadTier::kLight;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  cfg.duration = Seconds(30);
  cfg.load_factor = 0.2;
  auto res = harness::RunExperiment(cfg);
  EXPECT_EQ(res.system, "Repartition");
  EXPECT_EQ(res.recorder->completed_requests(),
            res.recorder->total_requests());
}

}  // namespace
}  // namespace fluidfaas::baselines
