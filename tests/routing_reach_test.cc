// The reach a refusing router promises through PlatformCore::RefuseThrough.
// A promised reach R is sound: in the same state, a request of the function
// due at R is refused and nothing is published. It is also tight: a request
// due at R + 1 is placed. Each scenario keeps its instances loading, so no
// estimate, and so no part of the state, moves while the clock advances to
// the probes' submission times; no autoscale tick runs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/esg_platform.h"
#include "baselines/repartition_platform.h"
#include "core/ffs_distributed.h"
#include "core/ffs_platform.h"
#include "model/zoo.h"
#include "platform/platform.h"
#include "platform/policy.h"

namespace fluidfaas::platform {
namespace {

/// Passes requests to the router under test until `hold` is set, then
/// leaves them pending untouched, so the test offers each probe itself.
class HoldRouting final : public RoutingPolicy {
 public:
  HoldRouting(std::unique_ptr<RoutingPolicy> inner, const bool* hold)
      : inner_(std::move(inner)), hold_(hold) {}
  void Attach(PlatformCore& core) override { inner_->Attach(core); }
  bool Route(PlatformCore& core, RequestId rid, FunctionId fn) override {
    return !*hold_ && inner_->Route(core, rid, fn);
  }
  RoutingPolicy& inner() { return *inner_; }

 private:
  std::unique_ptr<RoutingPolicy> inner_;
  const bool* hold_;
};

class NoScaling final : public ScalingPolicy {
 public:
  void Tick(PlatformCore&) override {}
};

constexpr FunctionId kFn(0);

/// What one Route call did, seen as DispatchPending sees it.
struct Offer {
  bool placed = false;
  bool published = false;
  SimTime reach = kNoReach;
};

class ReachTest : public ::testing::Test {
 protected:
  /// A core with one function (app 0 at `variant`) on one node of two GPUs
  /// cut as `partition`, routed by `bundle`'s router; its scaling policy is
  /// replaced by one that does nothing.
  void Build(PolicyBundle bundle,
             gpu::MigPartition partition = gpu::DefaultPartition(),
             model::Variant variant = model::Variant::kMedium,
             PlatformConfig config = PlatformConfig{}) {
    core_.reset();  // it holds the old cluster
    cluster_ = std::make_unique<gpu::Cluster>(
        std::vector<std::vector<gpu::MigPartition>>{{partition, partition}});
    std::vector<FunctionSpec> fns;
    fns.push_back(MakeFunctionSpec(kFn, 0, variant,
                                   model::BuildApp(0, variant), 1.5));
    auto hold =
        std::make_unique<HoldRouting>(std::move(bundle.routing), &hold_);
    router_ = &hold->inner();
    bundle.routing = std::move(hold);
    bundle.scaling = std::make_unique<NoScaling>();
    config.service_jitter_cv = 0.0;
    core_ = std::make_unique<PlatformCore>(sim_, *cluster_, std::move(fns),
                                           config, std::move(bundle));
  }

  /// One Route call of the router under test, made as DispatchPending
  /// makes it: the reach is reset first.
  Offer OfferToRouter(RequestId rid) {
    core_->RefuseThrough(kNoReach);
    const std::uint64_t before = sim_.bus().published();
    Offer o;
    o.placed = router_->Route(*core_, rid, kFn);
    o.published = sim_.bus().published() != before;
    o.reach = core_->refuse_through();
    return o;
  }

  /// A request submitted at `t`, due at t + SLO, left pending. Nothing may
  /// be published on the way to `t`.
  RequestId SubmitHeldAt(SimTime t) {
    hold_ = true;
    const std::uint64_t before = sim_.bus().published();
    sim_.RunUntil(t);
    EXPECT_EQ(sim_.bus().published(), before) << "the state moved by " << t;
    return core_->Submit(kFn);
  }

  /// Refuse a fresh request in the current state and check the reach R it
  /// promises with requests due at R and at R + 1.
  void ExpectSoundAndTightReach() {
    const SimDuration slo = core_->function(kFn).slo;
    const RequestId first = SubmitHeldAt(sim_.Now() + Millis(1));
    const Offer o = OfferToRouter(first);
    EXPECT_FALSE(o.placed);
    EXPECT_FALSE(o.published);
    const SimTime reach = o.reach;
    EXPECT_GE(reach, core_->DeadlineOf(first));
    EXPECT_LT(reach, kRefuseAll);
    EXPECT_GE(reach - slo, sim_.Now()) << "a probe due at the reach is late";
    if (reach - slo < sim_.Now() || reach >= kRefuseAll) return;

    const RequestId at = SubmitHeldAt(reach - slo);
    const RequestId past = SubmitHeldAt(reach + 1 - slo);
    EXPECT_EQ(core_->DeadlineOf(at), reach);
    const Offer refused = OfferToRouter(at);
    EXPECT_FALSE(refused.placed);
    EXPECT_FALSE(refused.published);
    EXPECT_EQ(refused.reach, reach);
    EXPECT_TRUE(OfferToRouter(past).placed);
  }

  /// Refuse a fresh request and one submitted `later` after it, both
  /// without a publish, each promising `reach`.
  void ExpectRefusalWithReach(SimTime reach, SimDuration later = Seconds(60)) {
    for (const SimDuration after : {Millis(1), later}) {
      const Offer o = OfferToRouter(SubmitHeldAt(sim_.Now() + after));
      EXPECT_FALSE(o.placed);
      EXPECT_FALSE(o.published);
      EXPECT_EQ(o.reach, reach);
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<gpu::Cluster> cluster_;
  std::unique_ptr<PlatformCore> core_;
  RoutingPolicy* router_ = nullptr;
  bool hold_ = false;
};

TEST_F(ReachTest, EsgPromisesTheBoundOfItsLeastLoadedInstance) {
  Build(baselines::MakeEsgBundle());
  core_->Submit(kFn);  // the cold path launches; the instance loads
  ASSERT_FALSE(core_->InstancesOf(kFn).empty());
  ExpectSoundAndTightReach();
}

TEST_F(ReachTest, InflessPromisesTheBoundOfItsLeastOutstandingInstance) {
  Build(baselines::MakeInflessBundle());
  core_->Submit(kFn);
  core_->Submit(kFn);
  ASSERT_FALSE(core_->InstancesOf(kFn).empty());
  ExpectSoundAndTightReach();
}

TEST_F(ReachTest, RepartitionPromisesTheBoundOfItsLeastLoadedInstance) {
  Build(baselines::MakeRepartitionBundle());
  core_->Submit(kFn);
  ASSERT_FALSE(core_->InstancesOf(kFn).empty());
  ExpectSoundAndTightReach();
}

// FluidFaaS without time sharing: steps 1 and 3 over one exclusive-hot
// instance, which the first request launched and was placed on.
TEST_F(ReachTest, FluidFaasExclusiveHotOnly) {
  PlatformConfig config;
  config.enable_time_sharing = false;
  auto state = std::make_shared<core::FfsState>();
  Build(core::MakeFluidFaasBundle(state), gpu::DefaultPartition(),
        model::Variant::kMedium, config);
  core_->Submit(kFn);
  ASSERT_EQ(state->state(kFn).eh.size(), 1u);
  ExpectSoundAndTightReach();
}

// All three steps: an exclusive-hot instance that misses the deadline, a
// time-sharing one that misses it too (and an exclusive-hot one exists),
// then the bounded fallback.
TEST_F(ReachTest, FluidFaasHotAndTimeSharing) {
  auto state = std::make_shared<core::FfsState>();
  Build(core::MakeFluidFaasBundle(state));
  ASSERT_NE(state->EnsureTsResident(*core_, kFn), nullptr);
  ASSERT_NE(state->LaunchExclusive(*core_, core_->function(kFn)), nullptr);
  ExpectSoundAndTightReach();
}

// Step 2 cannot make a time-sharing instance resident: exclusive-hot
// instances hold every slice, so EnsureTsResident fails without a publish.
TEST_F(ReachTest, FluidFaasClusterFullOfExclusiveHot) {
  auto state = std::make_shared<core::FfsState>();
  Build(core::MakeFluidFaasBundle(state));
  while (state->LaunchExclusive(*core_, core_->function(kFn)) != nullptr) {
  }
  ASSERT_GE(state->state(kFn).eh.size(), 2u);
  ASSERT_EQ(state->state(kFn).ts, nullptr);
  ExpectSoundAndTightReach();
}

// No slice holds the function whole, so no instance ever admits: the
// monolithic launches fail without a publish and every due is refused.
class NoSliceFitsTest : public ReachTest {
 protected:
  void Build(PolicyBundle bundle) {
    ReachTest::Build(std::move(bundle),
                     gpu::MigPartition::Parse("1g.10gb+1g.10gb+1g.10gb"),
                     model::Variant::kLarge);
    ASSERT_GT(core_->function(kFn).total_memory, GiB(10));
  }
};

TEST_F(NoSliceFitsTest, EveryRouterButDistPromisesEveryDue) {
  Build(baselines::MakeEsgBundle());
  ExpectRefusalWithReach(kRefuseAll);
  Build(baselines::MakeInflessBundle());
  ExpectRefusalWithReach(kRefuseAll);
  Build(baselines::MakeRepartitionBundle());
  ExpectRefusalWithReach(kRefuseAll);
  Build(core::MakeFluidFaasBundle());
  ExpectRefusalWithReach(kRefuseAll);
}

// Each FluidFaaS-dist Route call counts toward an invoker's arrivals, so
// its refusals promise nothing, even where its domains' would.
TEST_F(NoSliceFitsTest, FluidFaasDistPromisesNothing) {
  Build(core::MakeDistributedBundle());
  ExpectRefusalWithReach(kNoReach);
}

TEST_F(ReachTest, FluidFaasDistPromisesNothingOverLoadingInstances) {
  auto state = std::make_shared<core::DistState>();
  Build(core::MakeDistributedBundle(state));
  ASSERT_EQ(state->invokers.size(), 1u);
  core::FfsState& domain = state->invokers[0].domain;
  ASSERT_NE(domain.EnsureTsResident(*core_, kFn), nullptr);
  ASSERT_NE(domain.LaunchExclusive(*core_, core_->function(kFn)), nullptr);
  ExpectRefusalWithReach(kNoReach, Millis(1));
}

}  // namespace
}  // namespace fluidfaas::platform
