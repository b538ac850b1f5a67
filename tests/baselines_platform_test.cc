#include "baselines/esg_platform.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "metrics/recorder.h"
#include "model/costs.h"
#include "model/zoo.h"
#include "platform/placement.h"

namespace fluidfaas::baselines {
namespace {

using platform::FunctionSpec;
using platform::Instance;
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
  auto insts = f.plat_.InstancesOf(FunctionId(0)).items();
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

// -- tie-breaks of the baseline routers ---------------------------------------

/// A core that runs `bundle`'s router on hand-spawned instances of function
/// 0: it is never started, so no autoscaler tick launches or retires one.
class RouterTieFixture {
 public:
  explicit RouterTieFixture(platform::PolicyBundle bundle)
      : cluster_(gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition())),
        plat_(sim_, cluster_, Functions(model::Variant::kSmall), Config(),
              std::move(bundle)) {}

  /// Spawn on the next free slice that holds the model, with a chosen
  /// service latency; a warm spawn loads faster than a cold one.
  Instance* Spawn(SimDuration latency, bool warm) {
    auto plan = Plan();
    plan.stages.front().exec_time = latency;
    const platform::CommitResult r =
        plat_.Commit(platform::SpawnPlan(FunctionId(0), plan, warm));
    EXPECT_TRUE(r.ok());
    return r.spawned.front();
  }

  SimDuration ColdLoad() {
    return model::ColdLoad(Plan().stages.front().plan.weights);
  }
  SimDuration WarmLoad() {
    return model::WarmLoad(Plan().stages.front().plan.weights);
  }

  sim::Simulator sim_;
  gpu::Cluster cluster_;
  platform::PlatformCore plat_;

 private:
  static PlatformConfig Config() {
    PlatformConfig config;
    config.service_jitter_cv = 0.0;
    return config;
  }

  /// The model whole on the first free slice that holds it.
  core::PipelinePlan Plan() {
    const FunctionSpec& spec = plat_.function(FunctionId(0));
    for (SliceId sid : cluster_.AllSlices()) {
      const gpu::MigSlice& s = cluster_.slice(sid);
      if (!s.free() || s.memory() < spec.total_memory) continue;
      auto plan = core::MonolithicPlanOnSlice(spec.dag, cluster_, sid);
      if (plan) return *plan;
    }
    ADD_FAILURE() << "no free slice";
    return {};
  }
};

TEST(InflessPlatformTest, EqualOutstandingGoesToTheFirstInListOrder) {
  RouterTieFixture f(MakeInflessBundle());
  Instance* slow = f.Spawn(Millis(400), false);
  Instance* fast = f.Spawn(Millis(100), false);
  f.sim_.RunUntil(Seconds(60));
  // Least outstanding work, not least estimate: equals go to the first.
  f.plat_.Submit(FunctionId(0));
  EXPECT_EQ(slow->outstanding(), 1);
  EXPECT_EQ(fast->outstanding(), 0);
  f.plat_.Submit(FunctionId(0));
  EXPECT_EQ(fast->outstanding(), 1);
  f.plat_.Submit(FunctionId(0));
  EXPECT_EQ(slow->outstanding(), 2);
  EXPECT_EQ(fast->outstanding(), 1);
}

TEST(InflessPlatformTest, EqualOutstandingIgnoresWhetherTheFirstIsLoading) {
  RouterTieFixture f(MakeInflessBundle());
  Instance* cold = f.Spawn(Millis(100), false);
  Instance* warm = f.Spawn(Millis(100), true);
  f.sim_.RunUntil(f.sim_.Now() + f.WarmLoad() + Millis(1));
  ASSERT_EQ(cold->state(), InstanceState::kLoading);
  ASSERT_EQ(warm->state(), InstanceState::kReady);
  // The pick is the loading instance, whose cold load puts the request
  // past its bound: it waits, although the ready one would admit it.
  f.plat_.Submit(FunctionId(0));
  EXPECT_EQ(cold->outstanding(), 0);
  EXPECT_EQ(warm->outstanding(), 0);
  EXPECT_EQ(f.plat_.queue().size(), 1u);
}

TEST(EsgPlatformTest, EqualEstimatesGoToTheFirstInListOrder) {
  RouterTieFixture f(MakeEsgBundle());
  // A cold spawn of latency = its load time estimates t0 + 2 × cold; a warm
  // one, ready 1 ms before the request, gets the latency that ties it.
  const SimDuration c = f.ColdLoad();
  const SimDuration w = f.WarmLoad();
  Instance* cold = f.Spawn(c, false);
  Instance* warm = f.Spawn(2 * c - w - Millis(1), true);
  f.sim_.RunUntil(f.sim_.Now() + w + Millis(1));
  const SimTime now = f.sim_.Now();
  ASSERT_EQ(cold->state(), InstanceState::kLoading);
  ASSERT_EQ(warm->state(), InstanceState::kReady);
  ASSERT_EQ(cold->EstimateCompletion(now), warm->EstimateCompletion(now));
  f.plat_.Submit(FunctionId(0));
  EXPECT_EQ(cold->outstanding(), 1);
  EXPECT_EQ(warm->outstanding(), 0);
}

}  // namespace
}  // namespace fluidfaas::baselines
