// Focused tests of the heterogeneity-aware request routing (§5.3): hot
// instances lowest-latency-first, spill to the time-sharing instance, and
// the bounded fallback.
#include <gtest/gtest.h>

#include <vector>

#include "core/ffs_platform.h"
#include "core/pipeline.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/placement.h"

namespace fluidfaas::core {
namespace {

using platform::FunctionSpec;
using platform::Instance;
using platform::InstanceState;
using platform::MakeFunctionSpec;
using platform::PlatformConfig;

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest()
      : cluster_(gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition())),
        recorder_(cluster_) {
    std::vector<FunctionSpec> fns;
    fns.push_back(MakeFunctionSpec(FunctionId(0), 0, model::Variant::kMedium,
                                   model::BuildApp(0, model::Variant::kMedium),
                                   1.5));
    PlatformConfig config;
    config.service_jitter_cv = 0.0;  // exact arithmetic
    plat_ = std::make_unique<platform::PlatformCore>(
        sim_, cluster_, std::move(fns), config, MakeFluidFaasBundle(state_));
    recorder_.SubscribeTo(sim_.bus());
    plat_->Start();
  }

  /// Heat the function until it owns exclusive instances, then go idle.
  void WarmUp() {
    for (int i = 0; i < 250; ++i) {
      sim_.At(Millis(80) * i, [this] { plat_->Submit(FunctionId(0)); });
    }
    sim_.RunUntil(Seconds(30));
  }

  sim::Simulator sim_;
  gpu::Cluster cluster_;
  metrics::Recorder recorder_;
  std::shared_ptr<FfsState> state_ = std::make_shared<FfsState>();
  std::unique_ptr<platform::PlatformCore> plat_;
};

TEST_F(RoutingTest, HotInstancesServeBeforeTimeSharing) {
  WarmUp();
  ASSERT_GE(state_->state(FunctionId(0)).eh.size(), 1u);
  // Quiesce, then a single request: it must land on a hot instance (some
  // instance gains outstanding work while TS is absent or idle).
  sim_.RunUntil(Seconds(32));
  const std::size_t before = recorder_.completed_requests();
  plat_->Submit(FunctionId(0));
  bool hot_took_it = false;
  for (Instance* inst : plat_->InstancesOf(FunctionId(0))) {
    if (inst->outstanding() > 0 && inst->state() != InstanceState::kRetired) {
      hot_took_it = true;
    }
  }
  EXPECT_TRUE(hot_took_it);
  sim_.RunUntil(Seconds(200));
  EXPECT_GT(recorder_.completed_requests(), before);
}

TEST_F(RoutingTest, LowestServiceLatencyInstancePreferred) {
  WarmUp();
  auto insts = plat_->InstancesOf(FunctionId(0));
  // Find the fastest admitting instance.
  Instance* fastest = nullptr;
  for (Instance* inst : insts) {
    if (!inst->CanAdmit()) continue;
    if (fastest == nullptr ||
        inst->ServiceLatency() < fastest->ServiceLatency()) {
      fastest = inst;
    }
  }
  ASSERT_NE(fastest, nullptr);
  ASSERT_TRUE(fastest->Idle());
  plat_->Submit(FunctionId(0));
  EXPECT_GT(fastest->outstanding(), 0)
      << "request should go to the lowest-latency idle instance";
  sim_.RunUntil(Seconds(300));
}

TEST_F(RoutingTest, OverflowBeyondDeadlineUsesPendingSet) {
  WarmUp();
  sim_.RunUntil(Seconds(35));
  // Dump a large instantaneous burst: admission bounds cap per-instance
  // queues, the rest must sit in the EDF pending set (not FIFO queues).
  for (int i = 0; i < 200; ++i) plat_->Submit(FunctionId(0));
  std::size_t queued = 0;
  for (Instance* inst : plat_->InstancesOf(FunctionId(0))) {
    queued += static_cast<std::size_t>(inst->outstanding());
  }
  EXPECT_GT(plat_->queue().size(), 0u);
  EXPECT_LT(queued, 200u);
  sim_.RunUntil(Seconds(400));
  EXPECT_EQ(recorder_.completed_requests(), recorder_.total_requests());
}

TEST_F(RoutingTest, EvictionCostShowsUpAsLoadTime) {
  // Two functions on one GPU (3 slices): after the first function's TS
  // instance is evicted for others, its next request pays a visible reload.
  sim::Simulator sim;
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());
  metrics::Recorder recorder(cluster);
  std::vector<FunctionSpec> fns;
  for (int a = 0; a < 4; ++a) {
    fns.push_back(MakeFunctionSpec(FunctionId(a), a, model::Variant::kSmall,
                                   model::BuildApp(a, model::Variant::kSmall),
                                   1.5));
  }
  PlatformConfig config;
  platform::PlatformCore plat(sim, cluster, std::move(fns), config,
                              MakeFluidFaasBundle());
  recorder.SubscribeTo(sim.bus());
  plat.Start();
  // Touch fn0 first, then the other three (forcing fn0's eviction), then
  // fn0 again.
  sim.At(0, [&] { plat.Submit(FunctionId(0)); });
  for (int a = 1; a < 4; ++a) {
    sim.At(Seconds(10 * a), [&plat, a] { plat.Submit(FunctionId(a)); });
  }
  RequestId reload_rid;
  sim.At(Seconds(60), [&] { reload_rid = plat.Submit(FunctionId(0)); });
  sim.RunUntil(Seconds(200));
  ASSERT_GE(recorder.transitions(sim::TransitionKind::kEviction), 1u);
  ASSERT_TRUE(recorder.record(reload_rid).done());
  // The reload is a warm load: hundreds of ms, not a cold multi-second
  // fetch and not zero.
  EXPECT_GT(recorder.record(reload_rid).load_time, Millis(100));
  EXPECT_LT(recorder.record(reload_rid).load_time, Seconds(4));
}

// -- FfsState::Route on crafted exclusive-hot lists ---------------------------

class RefuseAll final : public platform::RoutingPolicy {
 public:
  bool Route(platform::PlatformCore&, RequestId, FunctionId) override {
    return false;
  }
};

class NoScaling final : public platform::ScalingPolicy {
 public:
  void Tick(platform::PlatformCore&) override {}
};

/// A core whose own router refuses everything, so a submitted request
/// waits in the pending set and the test routes it by calling
/// FfsState::Route directly. Instances are single-stage with a chosen
/// service latency, and the function's SLO is 500 ms.
class RouteTieBreakTest : public ::testing::Test {
 protected:
  void Build(bool time_sharing) {
    std::vector<FunctionSpec> fns;
    fns.push_back(MakeFunctionSpec(FunctionId(0), 0, model::Variant::kSmall,
                                   model::BuildApp(0, model::Variant::kSmall),
                                   1.5));
    fns.back().slo = Millis(500);
    PlatformConfig config;
    config.service_jitter_cv = 0.0;
    config.enable_time_sharing = time_sharing;
    platform::PolicyBundle b;
    b.routing = std::make_unique<RefuseAll>();
    b.scaling = std::make_unique<NoScaling>();
    plat_ = std::make_unique<platform::PlatformCore>(
        sim_, cluster_, std::move(fns), config, std::move(b));
    recorder_.SubscribeTo(sim_.bus());
    state_.EnsureSized(*plat_);
  }

  /// Spawn a monolithic instance on the next slice whose service latency
  /// is `latency`. Ids are minted in spawn order.
  Instance* Spawn(SimDuration latency) {
    auto plan = MonolithicPlanOnSlice(plat_->function(FunctionId(0)).dag,
                                      cluster_, SliceId(next_slice_++));
    EXPECT_TRUE(plan.has_value());
    plan->stages.front().exec_time = latency;
    const platform::CommitResult r =
        plat_->Commit(platform::SpawnPlan(FunctionId(0), *plan, false));
    EXPECT_TRUE(r.ok());
    return r.spawned.front();
  }

  /// Let every spawned instance finish loading.
  void LoadAll() { sim_.RunUntil(sim_.Now() + Seconds(60)); }

  /// A request whose deadline is now + 500 ms, waiting in the pending set.
  RequestId Pending() { return plat_->Submit(FunctionId(0)); }

  FfsState::FnState& fn_state() { return state_.state(FunctionId(0)); }

  sim::Simulator sim_;
  gpu::Cluster cluster_ = gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition());
  metrics::Recorder recorder_{cluster_};
  FfsState state_;
  std::unique_ptr<platform::PlatformCore> plat_;
  int next_slice_ = 0;
};

TEST_F(RouteTieBreakTest, EqualLatencyGoesToTheLowerId) {
  Build(true);
  Instance* lo = Spawn(Millis(200));
  Instance* hi = Spawn(Millis(200));
  ASSERT_LT(lo->id(), hi->id());
  LoadAll();
  fn_state().eh = {hi, lo};
  ASSERT_TRUE(state_.Route(*plat_, Pending(), FunctionId(0)));
  EXPECT_EQ(lo->outstanding(), 1);
  EXPECT_EQ(hi->outstanding(), 0);
}

TEST_F(RouteTieBreakTest, LowerLatencyThatMissesTheDeadlineIsPassedOver) {
  Build(true);
  Instance* fast = Spawn(Millis(300));
  Instance* slow = Spawn(Millis(400));
  LoadAll();
  fast->Enqueue(Pending(), 1.0);  // fast's estimate: now + 600 ms
  fn_state().eh = {fast, slow};
  ASSERT_TRUE(state_.Route(*plat_, Pending(), FunctionId(0)));
  EXPECT_EQ(fast->outstanding(), 1);
  EXPECT_EQ(slow->outstanding(), 1);
}

TEST_F(RouteTieBreakTest, NoneMeetsTheDeadlineFirstInListOrderWins) {
  Build(false);  // no time-sharing instance to spill to
  Instance* lo = Spawn(Millis(700));
  Instance* hi = Spawn(Millis(700));
  LoadAll();
  fn_state().eh = {hi, lo};
  // Both estimate now + 700 ms, past the deadline but within the bound:
  // the least-loaded fallback keeps the first of equals.
  ASSERT_TRUE(state_.Route(*plat_, Pending(), FunctionId(0)));
  EXPECT_EQ(hi->outstanding(), 1);
  EXPECT_EQ(lo->outstanding(), 0);
}

TEST_F(RouteTieBreakTest, DeadAndDrainingArePrunedInTheFallbackPass) {
  Build(false);
  Instance* gone = Spawn(Millis(100));
  Instance* draining = Spawn(Millis(100));
  Instance* hi = Spawn(Millis(700));
  Instance* lo = Spawn(Millis(700));
  LoadAll();
  plat_->RetireInstance(gone);
  draining->BeginDrain();
  fn_state().eh = {gone, draining, hi, lo};
  // Neither survivor meets the deadline: the pass that prunes the two
  // ahead of them also keeps the first of their equal estimates.
  ASSERT_TRUE(state_.Route(*plat_, Pending(), FunctionId(0)));
  EXPECT_EQ(hi->outstanding(), 1);
  EXPECT_EQ(lo->outstanding(), 0);
  EXPECT_EQ(fn_state().eh, (std::vector<Instance*>{hi, lo}));
}

TEST_F(RouteTieBreakTest, TimeSharingTyingTheLeastLoadedLosesToExclusiveHot) {
  Build(true);
  Instance* hot = Spawn(Millis(700));
  Instance* ts = Spawn(Millis(700));
  LoadAll();
  fn_state().eh = {hot};
  fn_state().ts = ts;
  fn_state().has_ts = true;
  // Both estimate now + 700 ms, past the deadline: the time-sharing
  // instance takes the fallback only when strictly earlier.
  ASSERT_TRUE(state_.Route(*plat_, Pending(), FunctionId(0)));
  EXPECT_EQ(hot->outstanding(), 1);
  EXPECT_EQ(ts->outstanding(), 0);
}

TEST_F(RouteTieBreakTest, AllHotDrainingTimeSharingTakesALateRequest) {
  Build(true);
  Instance* hot = Spawn(Millis(200));
  Instance* ts = Spawn(Millis(700));
  LoadAll();
  hot->BeginDrain();
  // ts's estimate is now + 2.1 s: past the deadline, and past the bound
  // (deadline + 1.4 s) that the least-loaded fallback would apply.
  ts->Enqueue(Pending(), 1.0);
  ts->Enqueue(Pending(), 1.0);
  fn_state().eh = {hot};
  fn_state().ts = ts;
  fn_state().has_ts = true;
  ASSERT_TRUE(state_.Route(*plat_, Pending(), FunctionId(0)));
  EXPECT_EQ(ts->outstanding(), 3);
  EXPECT_EQ(hot->outstanding(), 0);
}

}  // namespace
}  // namespace fluidfaas::core
