#include "platform/platform.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/policy.h"

namespace fluidfaas::platform {
namespace {

std::vector<FunctionSpec> StudyFunctions(model::Variant v) {
  std::vector<FunctionSpec> fns;
  int id = 0;
  for (auto& dag : model::BuildStudyApps(v)) {
    const int app = id;  // app order == id order for included variants
    fns.push_back(MakeFunctionSpec(FunctionId(id++), app, v, dag, 1.5));
  }
  return fns;
}

/// Minimal routing policy: one monolithic instance per function, created on
/// demand. The shared knobs let tests toggle acceptance and count calls.
struct TestKnobs {
  int route_calls = 0;
  bool accept = true;
};

class TestRouting final : public RoutingPolicy {
 public:
  explicit TestRouting(std::shared_ptr<TestKnobs> knobs)
      : knobs_(std::move(knobs)) {}

  bool Route(PlatformCore& core, RequestId rid, FunctionId fn) override {
    ++knobs_->route_calls;
    if (!knobs_->accept) return false;
    Instance* inst = nullptr;
    for (Instance* i : core.InstancesOf(fn)) {
      if (i->CanAdmit()) inst = i;
    }
    if (inst == nullptr) {
      const FunctionSpec& spec = core.function(fn);
      auto plan = core::MonolithicPlanOnSmallestSlice(spec.dag, core.cluster());
      if (!plan) return false;
      const CommitResult result =
          core.Commit(SpawnPlan(fn, std::move(*plan), core.IsWarm(fn)));
      if (!result.ok()) return false;
      inst = result.spawned.front();
    }
    inst->Enqueue(rid, core.JitterOf(rid));
    return true;
  }

 private:
  std::shared_ptr<TestKnobs> knobs_;
};

class NoScaling final : public ScalingPolicy {
 public:
  void Tick(PlatformCore&) override {}
};

PolicyBundle TestBundle(std::shared_ptr<TestKnobs> knobs) {
  PolicyBundle b;
  b.routing = std::make_unique<TestRouting>(std::move(knobs));
  b.scaling = std::make_unique<NoScaling>();
  return b;
}

class PlatformTest : public ::testing::Test {
 protected:
  PlatformTest()
      : cluster_(gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition())),
        recorder_(cluster_),
        knobs_(std::make_shared<TestKnobs>()),
        plat_(sim_, cluster_, StudyFunctions(model::Variant::kSmall),
              PlatformConfig{}, TestBundle(knobs_)) {
    recorder_.SubscribeTo(sim_.bus());
  }

  sim::Simulator sim_;
  gpu::Cluster cluster_;
  metrics::Recorder recorder_;
  std::shared_ptr<TestKnobs> knobs_;
  PlatformCore plat_;
};

TEST_F(PlatformTest, SubmitCreatesRecordWithSloDeadline) {
  const RequestId rid = plat_.Submit(FunctionId(0));
  const auto& rec = recorder_.record(rid);
  EXPECT_EQ(rec.fn, FunctionId(0));
  EXPECT_EQ(rec.arrival, 0);
  EXPECT_EQ(rec.deadline, plat_.function(FunctionId(0)).slo);
  EXPECT_EQ(plat_.DeadlineOf(rid), rec.deadline);
  EXPECT_EQ(knobs_->route_calls, 1);
}


TEST_F(PlatformTest, MetadataWindowSurvivesOutOfOrderFinishes) {
  // The first request waits in the pending set until another one finishes,
  // so later ids finish before it and the window holds rows of finished
  // requests behind an outstanding one.
  knobs_->accept = false;
  std::vector<RequestId> rids = {plat_.Submit(FunctionId(0))};
  knobs_->accept = true;
  for (int i = 0; i < 11; ++i) {
    rids.push_back(plat_.Submit(FunctionId(1 + i % 3)));
  }
  std::vector<SimTime> deadlines;
  std::vector<double> jitters;
  for (RequestId rid : rids) {
    deadlines.push_back(plat_.DeadlineOf(rid));
    jitters.push_back(plat_.JitterOf(rid));
    EXPECT_NE(jitters.back(), 1.0);  // sampled, not the finished default
  }
  std::vector<bool> finished(rids.size(), false);
  std::vector<RequestId> order;
  auto sub = sim_.bus().SubscribeScoped<sim::RequestCompleted>(
      [&](const sim::RequestCompleted& e) {
        // The completing request is still outstanding while this runs.
        for (std::size_t i = 0; i < rids.size(); ++i) {
          if (finished[i]) {
            EXPECT_THROW(plat_.DeadlineOf(rids[i]), FfsError);
            EXPECT_EQ(plat_.JitterOf(rids[i]), 1.0);
          } else {
            EXPECT_EQ(plat_.DeadlineOf(rids[i]), deadlines[i]);
            EXPECT_EQ(plat_.JitterOf(rids[i]), jitters[i]);
          }
        }
        finished[static_cast<std::size_t>(e.rid.value)] = true;
        order.push_back(e.rid);
      });
  sim_.Run();
  ASSERT_EQ(order.size(), rids.size());
  EXPECT_NE(order.front(), rids.front());  // finished out of id order
  for (RequestId rid : rids) {
    EXPECT_THROW(plat_.DeadlineOf(rid), FfsError);
  }
  // Ids keep counting after the window emptied.
  const RequestId next = plat_.Submit(FunctionId(0));
  EXPECT_EQ(next, RequestId(static_cast<std::int32_t>(rids.size())));
  EXPECT_EQ(plat_.DeadlineOf(next), recorder_.record(next).deadline);
  sim_.Run();
}

TEST_F(PlatformTest, LaunchBindsSlicesAndRetireReleases) {
  const FunctionSpec& spec = plat_.function(FunctionId(0));
  auto plan = core::MonolithicPlanOnSmallestSlice(spec.dag, cluster_);
  const SliceId used = plan->stages[0].slice;
  const CommitResult result =
      plat_.Commit(SpawnPlan(spec.id, *plan, /*warm=*/false));
  ASSERT_TRUE(result.ok());
  Instance* inst = result.spawned.front();
  EXPECT_FALSE(cluster_.slice(used).free());
  EXPECT_EQ(cluster_.slice(used).occupant, inst->id());
  sim_.Run();  // finish loading
  plat_.RetireInstance(inst);
  EXPECT_TRUE(cluster_.slice(used).free());
  EXPECT_EQ(inst->state(), InstanceState::kRetired);
  // Retiring marks the function warm.
  EXPECT_TRUE(plat_.IsWarm(FunctionId(0)));
}

TEST_F(PlatformTest, WarmExpiresAfterTimeout) {
  plat_.TouchWarm(FunctionId(0));
  EXPECT_TRUE(plat_.IsWarm(FunctionId(0)));
  sim_.RunUntil(kWarmTimeout + Seconds(1));
  EXPECT_FALSE(plat_.IsWarm(FunctionId(0)));
}

TEST_F(PlatformTest, PendingRequestsRetryOnCompletion) {
  knobs_->accept = false;
  plat_.Submit(FunctionId(0));
  EXPECT_EQ(plat_.queue().size(), 1u);
  knobs_->accept = true;
  // A completion of some other request triggers DispatchPending; simplest
  // trigger here: submit one that is accepted and let it finish.
  plat_.Submit(FunctionId(0));
  sim_.Run();
  EXPECT_EQ(plat_.queue().size(), 0u);
  EXPECT_EQ(recorder_.completed_requests(), 2u);
}

TEST_F(PlatformTest, StartRunsAutoscaleAndDispatchesPending) {
  plat_.Start();
  knobs_->accept = false;
  plat_.Submit(FunctionId(1));
  EXPECT_EQ(plat_.queue().size(), 1u);
  knobs_->accept = true;
  sim_.RunUntil(Seconds(2));  // a few autoscale ticks
  EXPECT_EQ(plat_.queue().size(), 0u);
  plat_.Stop();
}

TEST_F(PlatformTest, ArrivalRateTracksSubmissions) {
  plat_.Start();
  // 20 requests per second for 5 seconds.
  for (int t = 0; t < 5000; t += 50) {
    sim_.At(Millis(t), [this] { plat_.Submit(FunctionId(0)); });
  }
  sim_.RunUntil(Seconds(5));
  EXPECT_NEAR(plat_.ArrivalRate(FunctionId(0)), 20.0, 4.0);
  plat_.Stop();
}

TEST_F(PlatformTest, TickUtilizationReflectsBusyFraction) {
  plat_.Start();
  const RequestId rid = plat_.Submit(FunctionId(0));
  (void)rid;
  auto insts = plat_.InstancesOf(FunctionId(0)).items();
  ASSERT_EQ(insts.size(), 1u);
  sim_.RunUntil(Seconds(30));
  // Prime the snapshot, wait an idle second, utilization ~0.
  plat_.TickUtilization(insts[0]);
  sim_.RunUntil(Seconds(31));
  EXPECT_NEAR(plat_.TickUtilization(insts[0]), 0.0, 1e-9);
  plat_.Stop();
}

TEST_F(PlatformTest, DrainOrRetireImmediateWhenIdle) {
  plat_.Submit(FunctionId(0));
  sim_.Run();
  auto insts = plat_.InstancesOf(FunctionId(0)).items();
  ASSERT_EQ(insts.size(), 1u);
  EXPECT_TRUE(plat_.DrainOrRetire(insts[0]));
  EXPECT_EQ(insts[0]->state(), InstanceState::kRetired);
}

TEST_F(PlatformTest, DrainOrRetireDefersWhenBusy) {
  plat_.Submit(FunctionId(0));
  auto insts = plat_.InstancesOf(FunctionId(0)).items();
  ASSERT_EQ(insts.size(), 1u);
  EXPECT_FALSE(plat_.DrainOrRetire(insts[0]));
  EXPECT_EQ(insts[0]->state(), InstanceState::kDraining);
  sim_.Run();
}

TEST_F(PlatformTest, DrainingCountsDrainsUntilRetiredOrFailed) {
  plat_.Submit(FunctionId(0));
  plat_.Submit(FunctionId(1));
  Instance* a = plat_.InstancesOf(FunctionId(0)).front();
  Instance* b = plat_.InstancesOf(FunctionId(1)).front();
  EXPECT_FALSE(plat_.DrainOrRetire(a));
  EXPECT_FALSE(plat_.DrainOrRetire(b));
  EXPECT_FALSE(plat_.DrainOrRetire(b));  // already draining: no recount
  EXPECT_EQ(plat_.draining(), 2);
  plat_.FailInstance(b, sim::FaultKind::kInstanceCrash);
  EXPECT_EQ(plat_.draining(), 1);
  sim_.Run();
  ASSERT_EQ(a->state(), InstanceState::kDraining);
  RetireDrainedIdle(plat_);
  EXPECT_EQ(a->state(), InstanceState::kRetired);
  EXPECT_EQ(plat_.draining(), 0);
}

TEST_F(PlatformTest, LiveInstancesKeepCreationOrderAcrossRetireAndFail) {
  const FunctionSpec& spec = plat_.function(FunctionId(0));
  auto launch = [&]() -> Instance* {
    auto plan = core::MonolithicPlanOnSmallestSlice(spec.dag, cluster_);
    if (!plan) return nullptr;
    const CommitResult result =
        plat_.Commit(SpawnPlan(spec.id, std::move(*plan), /*warm=*/false));
    return result.ok() ? result.spawned.front() : nullptr;
  };
  Instance* a = launch();
  Instance* b = launch();
  Instance* c = launch();
  Instance* d = launch();
  ASSERT_TRUE(a && b && c && d);
  plat_.RetireInstance(b);
  plat_.FailInstance(c, sim::FaultKind::kInstanceCrash);
  EXPECT_EQ(plat_.InstancesOf(spec.id).items(),
            (std::vector<Instance*>{a, d}));
  EXPECT_EQ(plat_.InstanceIdBound(), 4u);
  EXPECT_EQ(plat_.FindInstance(a->id()), a);
  EXPECT_EQ(plat_.FindInstance(b->id()), nullptr);
  EXPECT_EQ(plat_.FindInstance(c->id()), nullptr);
  EXPECT_EQ(plat_.FindInstance(d->id()), d);

  Instance* e = launch();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(plat_.InstancesOf(spec.id).items(),
            (std::vector<Instance*>{a, d, e}));
  const std::vector<Instance*> all = {a, b, c, d, e};
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->id(), InstanceId(static_cast<std::int32_t>(i)));
  }
  sim_.Run();
}

TEST_F(PlatformTest, JitterIsNearUnit) {
  // With the default 5% CV, sampled jitter stays within a sane band.
  for (int i = 0; i < 100; ++i) {
    const RequestId rid = plat_.Submit(FunctionId(0));
    (void)rid;
  }
  sim_.Run();
  for (const auto& rec : recorder_.records()) {
    EXPECT_GT(rec.exec_time, 0);
  }
}

}  // namespace
}  // namespace fluidfaas::platform
