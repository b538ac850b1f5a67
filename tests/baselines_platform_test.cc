#include "baselines/esg_platform.h"

#include <gtest/gtest.h>

#include "metrics/recorder.h"
#include "model/zoo.h"

namespace fluidfaas::baselines {
namespace {

using platform::FunctionSpec;
using platform::InstanceState;
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

class BaselineFixture {
 public:
  BaselineFixture(platform::PolicyBundle bundle, model::Variant v,
                  PlatformConfig config = {})
      : cluster_(gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition())),
        recorder_(cluster_),
        plat_(sim_, cluster_, Functions(v), config, std::move(bundle)) {
    recorder_.SubscribeTo(sim_.bus());
    plat_.Start();
  }

  sim::Simulator sim_;
  gpu::Cluster cluster_;
  metrics::Recorder recorder_;
  platform::PlatformCore plat_;
};

TEST(EsgPlatformTest, ServesAndCompletesRequests) {
  BaselineFixture f(MakeEsgBundle(), model::Variant::kSmall);
  for (int i = 0; i < 20; ++i) {
    f.sim_.At(Millis(100 * i), [&f] { f.plat_.Submit(FunctionId(0)); });
  }
  f.sim_.RunUntil(Seconds(60));
  EXPECT_EQ(f.recorder_.completed_requests(), 20u);
  // ESG spawns only through its A* scale-up.
  EXPECT_GE(f.recorder_.spawns_committed(), 1u);
}

TEST(EsgPlatformTest, InstancesAreAlwaysMonolithic) {
  BaselineFixture f(MakeEsgBundle(), model::Variant::kMedium);
  for (int i = 0; i < 50; ++i) {
    f.sim_.At(Millis(50 * i), [&f] { f.plat_.Submit(FunctionId(0)); });
  }
  f.sim_.RunUntil(Seconds(10));
  for (const auto& spec : f.plat_.functions()) {
    for (auto* inst : f.plat_.InstancesOf(spec.id)) {
      EXPECT_EQ(inst->plan().num_stages(), 1);
    }
  }
  f.sim_.RunUntil(Seconds(120));
}

TEST(EsgPlatformTest, MediumVariantsNeverLandOnOneGSlices) {
  // Medium functions need > 10 GB: 1g slices must stay unused — exactly
  // the fragmentation the paper describes (§7.2).
  BaselineFixture f(MakeEsgBundle(), model::Variant::kMedium);
  for (int i = 0; i < 200; ++i) {
    f.sim_.At(Millis(25 * i), [&f, i] {
      f.plat_.Submit(FunctionId(i % 4));
    });
  }
  f.sim_.RunUntil(Seconds(30));
  for (SliceId sid : f.cluster_.AllSlices()) {
    const auto& s = f.cluster_.slice(sid);
    if (s.profile() == gpu::MigProfile::k1g10gb) {
      EXPECT_TRUE(s.free()) << "1g slice bound in medium workload";
    }
  }
  f.sim_.RunUntil(Seconds(300));
}

TEST(EsgPlatformTest, ExclusiveKeepAliveHoldsSliceWhileIdle) {
  PlatformConfig config;
  config.exclusive_keepalive = Seconds(30);
  BaselineFixture f(MakeEsgBundle(), model::Variant::kSmall, config);
  f.plat_.Submit(FunctionId(0));
  f.sim_.RunUntil(Seconds(10));
  EXPECT_EQ(f.recorder_.completed_requests(), 1u);
  // Idle but within keep-alive: slice still bound.
  EXPECT_LT(gpu::ClusterView(f.cluster_).FreeSlices().size(),
            f.cluster_.num_slices());
  // After the keep-alive expires the slice is released.
  f.sim_.RunUntil(Seconds(60));
  EXPECT_EQ(gpu::ClusterView(f.cluster_).FreeSlices().size(),
            f.cluster_.num_slices());
}

TEST(EsgPlatformTest, ScaleUpAddsCapacityUnderLoad) {
  BaselineFixture f(MakeEsgBundle(), model::Variant::kSmall);
  // Sustained 40 rps on one function needs many instances.
  for (int i = 0; i < 400; ++i) {
    f.sim_.At(Millis(25 * i), [&f] { f.plat_.Submit(FunctionId(0)); });
  }
  f.sim_.RunUntil(Seconds(10));
  EXPECT_GE(f.plat_.InstancesOf(FunctionId(0)).size(), 3u);
  f.sim_.RunUntil(Seconds(300));
  EXPECT_EQ(f.recorder_.completed_requests(), 400u);
}

TEST(InflessPlatformTest, ServesAndCompletesRequests) {
  BaselineFixture f(MakeInflessBundle(), model::Variant::kSmall);
  for (int i = 0; i < 20; ++i) {
    f.sim_.At(Millis(100 * i), [&f, i] {
      f.plat_.Submit(FunctionId(i % 4));
    });
  }
  f.sim_.RunUntil(Seconds(120));
  EXPECT_EQ(f.recorder_.completed_requests(), 20u);
}

TEST(InflessPlatformTest, BestFitUsesSmallestFittingSlice) {
  BaselineFixture f(MakeInflessBundle(), model::Variant::kSmall);
  f.plat_.Submit(FunctionId(0));
  auto insts = f.plat_.InstancesOf(FunctionId(0));
  ASSERT_EQ(insts.size(), 1u);
  EXPECT_EQ(insts[0]->plan().stages[0].profile, gpu::MigProfile::k1g10gb);
  f.sim_.RunUntil(Seconds(60));
}

TEST(InflessPlatformTest, MonolithicOnly) {
  BaselineFixture f(MakeInflessBundle(), model::Variant::kMedium);
  for (int i = 0; i < 100; ++i) {
    f.sim_.At(Millis(40 * i), [&f] { f.plat_.Submit(FunctionId(1)); });
  }
  f.sim_.RunUntil(Seconds(20));
  for (auto* inst : f.plat_.InstancesOf(FunctionId(1))) {
    EXPECT_EQ(inst->plan().num_stages(), 1);
  }
  f.sim_.RunUntil(Seconds(300));
}

TEST(BaselineComparisonTest, EsgRoutesWithSloAwareness) {
  // Both baselines complete the same workload; their instance placement
  // differs (ESG searches, INFless best-fits). This asserts both survive
  // a mixed run without starving anything.
  PlatformConfig config;
  for (auto variant : {model::Variant::kSmall, model::Variant::kMedium}) {
    BaselineFixture esg(MakeEsgBundle(), variant, config);
    BaselineFixture inf(MakeInflessBundle(), variant, config);
    for (int i = 0; i < 60; ++i) {
      esg.sim_.At(Millis(100 * i), [&esg, i] {
        esg.plat_.Submit(FunctionId(i % 3));
      });
      inf.sim_.At(Millis(100 * i), [&inf, i] {
        inf.plat_.Submit(FunctionId(i % 3));
      });
    }
    esg.sim_.RunUntil(Seconds(300));
    inf.sim_.RunUntil(Seconds(300));
    EXPECT_EQ(esg.recorder_.completed_requests(), 60u);
    EXPECT_EQ(inf.recorder_.completed_requests(), 60u);
  }
}

}  // namespace
}  // namespace fluidfaas::baselines
