// The point of the mechanism/policy split: policies compose. A custom
// RoutingPolicy runs against the stock FluidFaaS ScalingPolicy on one
// PlatformCore, and scheduler bundles round-trip through the registry.
#include "platform/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "core/ffs_platform.h"
#include "core/pipeline.h"
#include "gpu/cluster.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "sim/simulator.h"

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

/// A custom router wrapping the stock FluidFaaS one: counts calls, then
/// delegates. Composing an observer (or an override) around an existing
/// policy is the intended extension pattern.
class CountingRouting final : public RoutingPolicy {
 public:
  CountingRouting(std::unique_ptr<RoutingPolicy> inner, int* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  void Attach(PlatformCore& core) override { inner_->Attach(core); }
  bool Route(PlatformCore& core, RequestId rid, FunctionId fn) override {
    ++*calls_;
    return inner_->Route(core, rid, fn);
  }

 private:
  std::unique_ptr<RoutingPolicy> inner_;
  int* calls_;
};

TEST(PolicyCompositionTest, CustomRoutingWithStockFfsScaling) {
  sim::Simulator sim;
  auto cluster = gpu::Cluster::Uniform(1, 4, gpu::DefaultPartition());
  metrics::Recorder recorder(cluster);
  recorder.SubscribeTo(sim.bus());

  // Stock FluidFaaS bundle, but with its routing wrapped by ours. Routing
  // and scaling keep sharing the same FfsState.
  auto state = std::make_shared<core::FfsState>();
  PolicyBundle bundle = core::MakeFluidFaasBundle(state);
  int route_calls = 0;
  bundle.routing = std::make_unique<CountingRouting>(
      std::make_unique<core::FfsRouting>(state), &route_calls);
  bundle.name = "FluidFaaS+counter";

  PlatformCore plat(sim, cluster, StudyFunctions(), PlatformConfig{},
                    std::move(bundle));
  EXPECT_EQ(plat.name(), "FluidFaaS+counter");

  plat.Start();
  for (int t = 0; t < 20; ++t) {
    sim.At(Millis(250 * t), [&plat] { plat.Submit(FunctionId(0)); });
  }
  sim.RunUntil(Seconds(30));
  plat.Stop();
  recorder.Close(sim.Now());

  // Every submission routes at least once (pending retries add more).
  EXPECT_GE(route_calls, 20);
  EXPECT_EQ(recorder.completed_requests(), 20u);
  // The stock scaling policy did its Fig. 8 work underneath our router.
  EXPECT_GE(recorder.transitions(sim::TransitionKind::kPromotion), 0u);
}

TEST(RegistryTest, RegisterResolveRoundtrip) {
  RegisterScheduler("test-roundtrip", [] {
    PolicyBundle b;
    b.routing = std::make_unique<core::FfsRouting>(
        std::make_shared<core::FfsState>());
    b.scaling = std::make_unique<core::FfsScaling>(
        std::make_shared<core::FfsState>());
    return b;
  });
  EXPECT_TRUE(HasScheduler("test-roundtrip"));
  PolicyBundle b = MakeSchedulerBundle("test-roundtrip");
  // The registry defaults the bundle name to the registered name.
  EXPECT_EQ(b.name, "test-roundtrip");
  EXPECT_NE(b.routing, nullptr);
  EXPECT_NE(b.scaling, nullptr);

  const auto names = RegisteredSchedulers();
  EXPECT_TRUE(std::count(names.begin(), names.end(), "test-roundtrip"));
}

TEST(RegistryTest, UnknownSchedulerThrows) {
  EXPECT_FALSE(HasScheduler("no-such-scheduler"));
  EXPECT_THROW(MakeSchedulerBundle("no-such-scheduler"), FfsError);
}

TEST(RegistryTest, BuiltinsAreRegistered) {
  core::RegisterFluidFaasSchedulers();
  for (const char* name : {"FluidFaaS", "FluidFaaS-dist"}) {
    EXPECT_TRUE(HasScheduler(name)) << name;
  }
}

}  // namespace
}  // namespace fluidfaas::platform
