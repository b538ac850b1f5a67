#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/events.h"
#include "sim/simulator.h"

namespace fluidfaas::sim {
namespace {

/// One published fault command, flattened for comparison.
struct Command {
  std::string kind;
  SimTime at = 0;
  std::int32_t target = -1;  // iid or slice; -1 for armed faults

  bool operator==(const Command&) const = default;
};

/// Runs an injector against an otherwise empty simulation and collects
/// every fault command it publishes. `instances` pre-populates the live
/// instance set via the same bus events the platform would emit.
std::vector<Command> Collect(const FaultPlan& plan, int instances = 4) {
  Simulator sim;
  std::vector<Command> out;
  sim.bus().Subscribe<InstanceCrashRequested>(
      [&](const InstanceCrashRequested& e) {
        out.push_back({"crash", e.at, e.iid.value});
      });
  sim.bus().Subscribe<SliceFailureRequested>(
      [&](const SliceFailureRequested& e) {
        out.push_back({"slice", e.at, e.slice.value});
      });
  sim.bus().Subscribe<ColdStartFailureArmed>(
      [&](const ColdStartFailureArmed& e) {
        out.push_back({"cold", e.at, -1});
      });
  sim.bus().Subscribe<SlowStartArmed>(
      [&](const SlowStartArmed& e) { out.push_back({"slow", e.at, -1}); });

  FaultInjector injector(sim, plan);
  injector.Start();
  for (int i = 0; i < instances; ++i) {
    sim.bus().Publish(SliceBound{SliceId(i), InstanceId(i), 0});
  }
  sim.Run();
  EXPECT_EQ(injector.injected(),
            injector.injected(FaultKind::kInstanceCrash) +
                injector.injected(FaultKind::kSliceFailure) +
                injector.injected(FaultKind::kColdStartFailure) +
                injector.injected(FaultKind::kSlowStart));
  // Commands naming dead entities are swallowed, never minted from thin
  // air: published count can only be at or below the injection count.
  EXPECT_LE(out.size(), injector.injected());
  return out;
}

FaultPlan BusyPlan(std::uint64_t seed) {
  FaultPlan plan;
  plan.rate = 2.0;  // ~60 faults over the horizon
  plan.seed = seed;
  plan.horizon = Seconds(30);
  plan.num_slices = 8;
  return plan;
}

TEST(FaultInjectorTest, RateZeroIsAStrictNoOp) {
  Simulator sim;
  FaultInjector injector(sim, FaultPlan{});  // rate == 0
  injector.Start();
  EXPECT_FALSE(injector.running());
  EXPECT_EQ(injector.injected(), 0u);
  // No subscriptions: instance-lifecycle traffic is not even observed.
  sim.bus().Publish(SliceBound{SliceId(0), InstanceId(0), 0});
  EXPECT_EQ(injector.tracked_instances(), 0u);
  // No timers: the simulation has nothing to run.
  EXPECT_EQ(sim.Run(), 0u);
}

TEST(FaultInjectorTest, SameSeedReplaysTheSameSchedule) {
  const auto a = Collect(BusyPlan(7));
  const auto b = Collect(BusyPlan(7));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultInjectorTest, DifferentSeedsDisagree) {
  const auto a = Collect(BusyPlan(7));
  const auto b = Collect(BusyPlan(8));
  EXPECT_NE(a, b);
}

TEST(FaultInjectorTest, VictimPoolDoesNotPerturbTheClock) {
  // Determinism across schedulers requires the injector to consume the
  // same RNG stream whether or not victims exist: the command *times*
  // must match even when the live-instance population differs.
  const auto with = Collect(BusyPlan(7), /*instances=*/4);
  const auto none = Collect(BusyPlan(7), /*instances=*/0);
  std::vector<SimTime> with_times, none_times;
  for (const Command& c : with) {
    if (c.kind != "crash") with_times.push_back(c.at);
  }
  for (const Command& c : none) {
    ASSERT_NE(c.kind, "crash");  // nobody to crash
    none_times.push_back(c.at);
  }
  EXPECT_EQ(with_times, none_times);
}

TEST(FaultInjectorTest, RespectsTheHorizon) {
  const FaultPlan plan = BusyPlan(11);
  for (const Command& c : Collect(plan)) {
    EXPECT_LT(c.at, plan.horizon) << c.kind;
  }
}

TEST(FaultInjectorTest, StopCancelsPendingInjectionAndDetaches) {
  Simulator sim;
  std::size_t published = 0;
  sim.bus().Subscribe<InstanceCrashRequested>(
      [&](const InstanceCrashRequested&) { ++published; });
  sim.bus().Subscribe<SliceFailureRequested>(
      [&](const SliceFailureRequested&) { ++published; });
  sim.bus().Subscribe<ColdStartFailureArmed>(
      [&](const ColdStartFailureArmed&) { ++published; });
  sim.bus().Subscribe<SlowStartArmed>(
      [&](const SlowStartArmed&) { ++published; });

  FaultInjector injector(sim, BusyPlan(3));
  injector.Start();
  EXPECT_TRUE(injector.running());
  sim.bus().Publish(SliceBound{SliceId(0), InstanceId(0), 0});
  EXPECT_EQ(injector.tracked_instances(), 1u);

  injector.Stop();
  EXPECT_FALSE(injector.running());
  EXPECT_EQ(injector.tracked_instances(), 0u);  // victim pool dropped
  sim.bus().Publish(SliceBound{SliceId(1), InstanceId(1), 0});
  EXPECT_EQ(injector.tracked_instances(), 0u);  // no longer listening
  sim.Run();
  EXPECT_EQ(published, 0u);
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(FaultInjectorTest, TracksInstanceLifecycleThroughTheBus) {
  Simulator sim;
  FaultInjector injector(sim, BusyPlan(5));
  injector.Start();
  EXPECT_EQ(injector.tracked_instances(), 0u);

  sim.bus().Publish(SliceBound{SliceId(0), InstanceId(7), 0});
  sim.bus().Publish(SliceBound{SliceId(1), InstanceId(7), 0});  // 2nd stage
  sim.bus().Publish(SliceBound{SliceId(2), InstanceId(9), 0});
  EXPECT_EQ(injector.tracked_instances(), 2u);

  InstanceStateChanged retire;
  retire.iid = InstanceId(7);
  retire.to = InstancePhase::kRetired;
  sim.bus().Publish(retire);
  EXPECT_EQ(injector.tracked_instances(), 1u);

  InstanceStateChanged fail;
  fail.iid = InstanceId(9);
  fail.to = InstancePhase::kFailed;
  sim.bus().Publish(fail);
  EXPECT_EQ(injector.tracked_instances(), 0u);
}

}  // namespace
}  // namespace fluidfaas::sim
