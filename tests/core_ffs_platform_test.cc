// Scenario tests of the FluidFaaS scheduling system: the Fig. 8 state
// machine, LRU eviction, pipeline construction on fragmented slices, and
// pipeline migration.
#include "core/ffs_platform.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/function.h"

namespace fluidfaas::core {
namespace {

using platform::FunctionSpec;
using platform::InstanceState;
using platform::MakeFunctionSpec;
using platform::PlatformConfig;

std::vector<FunctionSpec> Functions(model::Variant v, int copies = 1) {
  std::vector<FunctionSpec> fns;
  int id = 0;
  for (int c = 0; c < copies; ++c) {
    for (int a = 0; a < model::kNumApps; ++a) {
      if (!model::IncludedInStudy(a, v)) continue;
      fns.push_back(
          MakeFunctionSpec(FunctionId(id++), a, v, model::BuildApp(a, v),
                           1.5));
    }
  }
  return fns;
}

class FfsPlatformTest : public ::testing::Test {
 protected:
  void Build(model::Variant v, int nodes = 1, int gpus = 2,
             PlatformConfig config = {}) {
    cluster_ = std::make_unique<gpu::Cluster>(
        gpu::Cluster::Uniform(nodes, gpus, gpu::DefaultPartition()));
    recorder_ = std::make_unique<metrics::Recorder>(*cluster_);
    config.seed = 7;
    state_ = std::make_shared<FfsState>();
    plat_ = std::make_unique<platform::PlatformCore>(
        sim_, *cluster_, Functions(v), config, MakeFluidFaasBundle(state_));
    recorder_->SubscribeTo(sim_.bus());
    plat_->Start();
  }

  /// Submit `n` requests for `fn` spaced `gap` apart starting now.
  void Burst(FunctionId fn, int n, SimDuration gap) {
    for (int i = 0; i < n; ++i) {
      sim_.At(sim_.Now() + i * gap, [this, fn] { plat_->Submit(fn); });
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<gpu::Cluster> cluster_;
  std::unique_ptr<metrics::Recorder> recorder_;
  std::shared_ptr<FfsState> state_;
  std::unique_ptr<platform::PlatformCore> plat_;
};

TEST_F(FfsPlatformTest, FirstRequestCreatesTimeSharingInstance) {
  Build(model::Variant::kSmall);
  plat_->Submit(FunctionId(0));
  // Fig. 8 ①: the first request yields a time-sharing instance.
  EXPECT_TRUE(state_->state(FunctionId(0)).has_ts);
  EXPECT_NE(state_->state(FunctionId(0)).ts, nullptr);
  EXPECT_EQ(state_->state(FunctionId(0)).eh.size(), 0u);
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(recorder_->completed_requests(), 1u);
}

TEST_F(FfsPlatformTest, SustainedLoadPromotesToExclusiveHot) {
  Build(model::Variant::kSmall);
  Burst(FunctionId(0), 300, Millis(100));  // 10 rps for 30 s, util >> 30%
  sim_.RunUntil(Seconds(25));
  // Fig. 8 ②: the hot function now owns exclusive instances.
  EXPECT_GE(recorder_->transitions(sim::TransitionKind::kPromotion), 1u);
  EXPECT_GE(state_->state(FunctionId(0)).eh.size(), 1u);
  sim_.RunUntil(Seconds(180));
}

TEST_F(FfsPlatformTest, IdlenessDemotesBackToTimeSharing) {
  Build(model::Variant::kSmall);
  Burst(FunctionId(0), 200, Millis(100));
  sim_.RunUntil(Seconds(25));
  ASSERT_GE(state_->state(FunctionId(0)).eh.size(), 1u);
  // Fig. 8 ③: traffic stops; the function ends holding only a
  // time-sharing entry — every exclusive instance is gone.
  sim_.RunUntil(Seconds(90));
  EXPECT_TRUE(state_->state(FunctionId(0)).has_ts);
  EXPECT_EQ(state_->state(FunctionId(0)).eh.size(), 0u);
}

TEST_F(FfsPlatformTest, ColdAfterWarmTimeout) {
  Build(model::Variant::kSmall);
  plat_->Submit(FunctionId(0));
  sim_.RunUntil(Seconds(10));
  ASSERT_TRUE(state_->state(FunctionId(0)).has_ts);
  // The request finished within the first 10 s, so at the 10-minute mark
  // the function has been idle for less than the warm window.
  sim_.RunUntil(platform::kWarmTimeout);
  EXPECT_TRUE(state_->state(FunctionId(0)).has_ts);
  // Fig. 8 ⑤: no demand for the warm window -> cold (entry removed).
  sim_.RunUntil(platform::kWarmTimeout + Seconds(30));
  EXPECT_FALSE(state_->state(FunctionId(0)).has_ts);
}

TEST_F(FfsPlatformTest, LruEvictionWhenSlicesAreScarce) {
  // One GPU = 3 slices. Four small functions in time-sharing state compete;
  // touching them in order forces eviction of the least-recently-used.
  Build(model::Variant::kSmall, 1, 1);
  const auto fns = plat_->functions();
  ASSERT_EQ(fns.size(), 4u);
  SimTime t = 0;
  for (const auto& f : fns) {
    sim_.At(t, [this, id = f.id] { plat_->Submit(id); });
    t += Seconds(2);
  }
  sim_.RunUntil(Seconds(30));
  // Three slices, four resident candidates: at least one eviction (④).
  EXPECT_GE(recorder_->transitions(sim::TransitionKind::kEviction), 1u);
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(recorder_->completed_requests(), 4u);
}

TEST_F(FfsPlatformTest, EvictedFunctionReloadsWarm) {
  Build(model::Variant::kSmall, 1, 1);
  // fn0 resident, then three others push it out, then fn0 returns.
  plat_->Submit(FunctionId(0));
  sim_.RunUntil(Seconds(5));
  for (int i = 1; i < 4; ++i) {
    sim_.At(Seconds(5 + i), [this, i] { plat_->Submit(FunctionId(i)); });
  }
  sim_.RunUntil(Seconds(20));
  sim_.At(Seconds(20), [this] { plat_->Submit(FunctionId(0)); });
  sim_.RunUntil(Seconds(120));
  EXPECT_EQ(recorder_->completed_requests(), 5u);
  // The reload exists; its load time is warm-scale (sub-second per GiB),
  // visible as load_time on the last request if it reloaded.
  EXPECT_GE(recorder_->transitions(sim::TransitionKind::kEviction), 1u);
}

TEST_F(FfsPlatformTest, FragmentationTriggersPipelineLaunch) {
  // Medium variants need 2g monolithically. Keep only 1g slices free:
  // FluidFaaS must construct pipelines to serve load (the Fig. 1 story).
  Build(model::Variant::kMedium, 1, 2);
  // Occupy both 4g and both 2g slices with foreign bindings.
  for (SliceId sid : cluster_->AllSlices()) {
    const auto& s = cluster_->slice(sid);
    if (s.profile() != gpu::MigProfile::k1g10gb) {
      cluster_->Bind(sid, InstanceId(999));
    }
  }
  Burst(FunctionId(0), 150, Millis(100));
  sim_.RunUntil(Seconds(20));
  EXPECT_GE(recorder_->pipelines_committed(), 1u);
  sim_.RunUntil(Seconds(240));
  EXPECT_EQ(recorder_->completed_requests(), 150u);
}

TEST_F(FfsPlatformTest, PipelinesDisabledAblationCannotUseFragments) {
  PlatformConfig config;
  config.enable_pipelines = false;
  Build(model::Variant::kMedium, 1, 2, config);
  for (SliceId sid : cluster_->AllSlices()) {
    const auto& s = cluster_->slice(sid);
    if (s.profile() != gpu::MigProfile::k1g10gb) {
      cluster_->Bind(sid, InstanceId(999));
    }
  }
  Burst(FunctionId(0), 50, Millis(100));
  sim_.RunUntil(Seconds(30));
  EXPECT_EQ(recorder_->pipelines_committed(), 0u);
  // Nothing can be placed: no instance exists, requests pend.
  EXPECT_EQ(recorder_->completed_requests(), 0u);
  EXPECT_GT(plat_->queue().size(), 0u);
}

TEST_F(FfsPlatformTest, MigrationReplacesPipelineWhenBigSliceFrees) {
  Build(model::Variant::kMedium, 1, 2);
  // Occupy the large slices so the first instances are pipelines...
  std::vector<SliceId> blocked;
  for (SliceId sid : cluster_->AllSlices()) {
    const auto& s = cluster_->slice(sid);
    if (s.profile() != gpu::MigProfile::k1g10gb) {
      cluster_->Bind(sid, InstanceId(999));
      blocked.push_back(sid);
    }
  }
  Burst(FunctionId(0), 150, Millis(50));  // burst ends before the release
  sim_.RunUntil(Seconds(10));
  ASSERT_GE(recorder_->pipelines_committed(), 1u);
  // ...then free them: migration should kick in (§5.3).
  sim_.At(sim_.Now(), [this, blocked] {
    for (SliceId sid : blocked) cluster_->Release(sid, InstanceId(999));
  });
  sim_.RunUntil(Seconds(40));
  EXPECT_GE(recorder_->transitions(sim::TransitionKind::kMigration), 1u);
  sim_.RunUntil(Seconds(400));
  EXPECT_EQ(recorder_->completed_requests(), 150u);
}

TEST_F(FfsPlatformTest, MigrationDisabledAblation) {
  PlatformConfig config;
  config.enable_migration = false;
  Build(model::Variant::kMedium, 1, 2, config);
  std::vector<SliceId> blocked;
  for (SliceId sid : cluster_->AllSlices()) {
    const auto& s = cluster_->slice(sid);
    if (s.profile() != gpu::MigProfile::k1g10gb) {
      cluster_->Bind(sid, InstanceId(999));
      blocked.push_back(sid);
    }
  }
  Burst(FunctionId(0), 200, Millis(50));
  sim_.RunUntil(Seconds(10));
  sim_.At(sim_.Now(), [this, blocked] {
    for (SliceId sid : blocked) cluster_->Release(sid, InstanceId(999));
  });
  sim_.RunUntil(Seconds(40));
  EXPECT_EQ(recorder_->transitions(sim::TransitionKind::kMigration), 0u);
  sim_.RunUntil(Seconds(300));
}

TEST_F(FfsPlatformTest, StrongIsolationHoldsThroughoutARun) {
  // The cluster itself enforces one-instance-per-slice; a full chaotic run
  // across all functions must never trip that check.
  Build(model::Variant::kSmall, 1, 2);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto fn = FunctionId(static_cast<std::int32_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(
                              plat_->functions().size()) - 1)));
    sim_.At(rng.UniformInt(0, Seconds(60)), [this, fn] { plat_->Submit(fn); });
  }
  EXPECT_NO_THROW(sim_.RunUntil(Seconds(300)));
  EXPECT_EQ(recorder_->completed_requests(), 500u);
}

TEST_F(FfsPlatformTest, TimeSharingDisabledUsesExclusiveOnly) {
  PlatformConfig config;
  config.enable_time_sharing = false;
  Build(model::Variant::kSmall, 1, 2, config);
  plat_->Submit(FunctionId(0));
  EXPECT_FALSE(state_->state(FunctionId(0)).has_ts);
  EXPECT_EQ(state_->state(FunctionId(0)).eh.size(), 1u);
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(recorder_->completed_requests(), 1u);
}

}  // namespace
}  // namespace fluidfaas::core
