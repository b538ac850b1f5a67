#include "sim/event_bus.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gpu/cluster.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/platform.h"
#include "platform/policy.h"
#include "sim/events.h"
#include "sim/simulator.h"

namespace fluidfaas::sim {
namespace {

// PendingDepthChanged and ColdStartFailureArmed stand in for any two listed
// types: each carries one number to deliver.
TEST(EventBusTest, DispatchesByType) {
  EventBus bus;
  std::size_t depths = 0;
  SimTime arms = 0;
  bus.Subscribe<PendingDepthChanged>(
      [&](const PendingDepthChanged& e) { depths += e.depth; });
  bus.Subscribe<ColdStartFailureArmed>(
      [&](const ColdStartFailureArmed& e) { arms += e.at; });
  bus.Publish(PendingDepthChanged{2});
  bus.Publish(PendingDepthChanged{3});
  bus.Publish(ColdStartFailureArmed{10});
  EXPECT_EQ(depths, 5u);
  EXPECT_EQ(arms, 10);
  EXPECT_EQ(bus.published(), 3u);
}

TEST(EventBusTest, PublishWithoutSubscribersIsFine) {
  EventBus bus;
  bus.Publish(PendingDepthChanged{1});
  EXPECT_EQ(bus.published(), 1u);
}

// Each type on sim::Events has its own handlers: publishing every listed
// type once, in list order, runs each type's one handler exactly once.
TEST(EventBusTest, EveryListedTypeHasItsOwnHandlers) {
  EventBus bus;
  std::vector<int> seen;
  std::vector<int> expected;
  [&]<typename... E>(TypeList<E...>) {
    int index = 0;
    (bus.Subscribe<E>([&seen, i = index++](const E&) { seen.push_back(i); }),
     ...);
    (bus.Publish(E{}), ...);
    for (int i = 0; i < static_cast<int>(sizeof...(E)); ++i) {
      expected.push_back(i);
    }
  }(Events{});
  EXPECT_EQ(seen, expected);
}

// A type not on sim::Events can be neither published nor subscribed to.
struct OffList {
  int value = 0;
};
template <typename E>
constexpr bool kPublishable =
    requires(EventBus& bus, const E& ev) { bus.Publish(ev); };
template <typename E>
constexpr bool kSubscribable =
    requires(EventBus& bus, std::function<void(const E&)> handler) {
      bus.Subscribe<E>(handler);
    };
template <typename E>
constexpr bool kScopedSubscribable =
    requires(EventBus& bus, std::function<void(const E&)> handler) {
      bus.SubscribeScoped<E>(handler);
    };
static_assert(kPublishable<PendingDepthChanged>);
static_assert(kSubscribable<PendingDepthChanged>);
static_assert(kScopedSubscribable<PendingDepthChanged>);
static_assert(!kPublishable<OffList>);
static_assert(!kSubscribable<OffList>);
static_assert(!kScopedSubscribable<OffList>);

TEST(EventBusTest, SubscribersRunInSubscriptionOrder) {
  EventBus bus;
  std::vector<int> order;
  bus.Subscribe<PendingDepthChanged>(
      [&](const PendingDepthChanged&) { order.push_back(1); });
  bus.Subscribe<PendingDepthChanged>(
      [&](const PendingDepthChanged&) { order.push_back(2); });
  bus.Subscribe<PendingDepthChanged>(
      [&](const PendingDepthChanged&) { order.push_back(3); });
  bus.Publish(PendingDepthChanged{});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- unsubscription ---------------------------------------------------------

TEST(EventBusTest, UnsubscribeStopsDelivery) {
  EventBus bus;
  std::size_t depths = 0;
  const EventBus::SubscriptionId id = bus.Subscribe<PendingDepthChanged>(
      [&](const PendingDepthChanged& e) { depths += e.depth; });
  bus.Publish(PendingDepthChanged{1});
  EXPECT_TRUE(bus.Unsubscribe(id));
  bus.Publish(PendingDepthChanged{10});
  EXPECT_EQ(depths, 1u);
  // A second removal of the same id reports failure, harmlessly.
  EXPECT_FALSE(bus.Unsubscribe(id));
  EXPECT_FALSE(bus.Unsubscribe(9999));
}

TEST(EventBusTest, UnsubscribeFindsTheIdUnderItsOwnType) {
  EventBus bus;
  int depths = 0, arms = 0;
  bus.Subscribe<PendingDepthChanged>(
      [&](const PendingDepthChanged&) { ++depths; });
  const EventBus::SubscriptionId arm = bus.Subscribe<ColdStartFailureArmed>(
      [&](const ColdStartFailureArmed&) { ++arms; });
  EXPECT_TRUE(bus.Unsubscribe(arm));
  bus.Publish(PendingDepthChanged{});
  bus.Publish(ColdStartFailureArmed{});
  EXPECT_EQ(depths, 1);  // the other type's handler stays
  EXPECT_EQ(arms, 0);
}

TEST(EventBusTest, ScopedSubscriptionDetachesOnDestruction) {
  EventBus bus;
  int runs = 0;
  {
    EventBus::Subscription sub = bus.SubscribeScoped<PendingDepthChanged>(
        [&](const PendingDepthChanged&) { ++runs; });
    bus.Publish(PendingDepthChanged{});
    EXPECT_EQ(runs, 1);
  }
  bus.Publish(PendingDepthChanged{});
  EXPECT_EQ(runs, 1);
}

TEST(EventBusTest, ScopedSubscriptionMoveTransfersOwnership) {
  EventBus bus;
  int runs = 0;
  EventBus::Subscription outer;
  {
    EventBus::Subscription inner = bus.SubscribeScoped<PendingDepthChanged>(
        [&](const PendingDepthChanged&) { ++runs; });
    outer = std::move(inner);
    inner.Release();  // NOLINT(bugprone-use-after-move): a moved-from no-op
  }
  bus.Publish(PendingDepthChanged{});  // inner's Release and destruction
  EXPECT_EQ(runs, 1);                  // must not have detached
  outer.Release();
  bus.Publish(PendingDepthChanged{});
  EXPECT_EQ(runs, 1);
}

TEST(EventBusTest, HandlerMayUnsubscribeItselfDuringDispatch) {
  EventBus bus;
  int first = 0, second = 0;
  EventBus::SubscriptionId id = 0;
  id = bus.Subscribe<PendingDepthChanged>([&](const PendingDepthChanged&) {
    ++first;
    bus.Unsubscribe(id);  // one-shot subscriber
  });
  bus.Subscribe<PendingDepthChanged>(
      [&](const PendingDepthChanged&) { ++second; });
  bus.Publish(PendingDepthChanged{});
  bus.Publish(PendingDepthChanged{});
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);  // the later peer kept running, both times
}

TEST(EventBusTest, HandlerMayUnsubscribeALaterPeerDuringDispatch) {
  EventBus bus;
  int victim_runs = 0, killer_runs = 0;
  std::vector<bool> removed;
  EventBus::SubscriptionId victim = 0;
  bus.Subscribe<PendingDepthChanged>([&](const PendingDepthChanged&) {
    ++killer_runs;
    removed.push_back(bus.Unsubscribe(victim));
  });
  victim = bus.Subscribe<PendingDepthChanged>(
      [&](const PendingDepthChanged&) { ++victim_runs; });
  bus.Publish(PendingDepthChanged{});
  // Tombstoned mid-dispatch: the victim must not see the in-flight event.
  EXPECT_EQ(victim_runs, 0);
  bus.Publish(PendingDepthChanged{});
  EXPECT_EQ(victim_runs, 0);
  EXPECT_EQ(killer_runs, 2);
  // The tombstone does not count as a live subscription.
  EXPECT_EQ(removed, (std::vector<bool>{true, false}));
}

TEST(EventBusTest, SubscribeDuringDispatchMissesTheInFlightEvent) {
  EventBus bus;
  int late_runs = 0;
  bool subscribed = false;
  bus.Subscribe<PendingDepthChanged>([&](const PendingDepthChanged&) {
    if (subscribed) return;
    subscribed = true;
    bus.Subscribe<PendingDepthChanged>(
        [&](const PendingDepthChanged&) { ++late_runs; });
  });
  bus.Publish(PendingDepthChanged{});
  EXPECT_EQ(late_runs, 0);  // snapshot taken at Publish time
  bus.Publish(PendingDepthChanged{});
  EXPECT_EQ(late_runs, 1);
}

// --- lifecycle ordering through a real platform ----------------------------

std::vector<platform::FunctionSpec> StudyFunctions() {
  std::vector<platform::FunctionSpec> fns;
  int id = 0;
  for (auto& dag : model::BuildStudyApps(model::Variant::kSmall)) {
    const int app = id;
    fns.push_back(
        platform::MakeFunctionSpec(FunctionId(id++), app,
                                   model::Variant::kSmall, dag, 1.5));
  }
  return fns;
}

/// Greedy router used to drive real request traffic through the bus.
class GreedyRouting final : public platform::RoutingPolicy {
 public:
  bool Route(platform::PlatformCore& core, RequestId rid,
             FunctionId fn) override {
    platform::Instance* inst = nullptr;
    for (platform::Instance* i : core.InstancesOf(fn)) {
      if (i->CanAdmit()) inst = i;
    }
    if (inst == nullptr) {
      const platform::FunctionSpec& spec = core.function(fn);
      auto plan = core::MonolithicPlanOnSmallestSlice(spec.dag, core.cluster());
      if (!plan) return false;
      const platform::CommitResult result = core.Commit(
          platform::SpawnPlan(fn, std::move(*plan), core.IsWarm(fn)));
      if (!result.ok()) return false;
      inst = result.spawned.front();
    }
    inst->Enqueue(rid, core.JitterOf(rid));
    return true;
  }
};

class NoScaling final : public platform::ScalingPolicy {
 public:
  void Tick(platform::PlatformCore&) override {}
};

TEST(EventBusLifecycleTest, RequestEventsArriveInSimTimeOrder) {
  Simulator sim;
  auto cluster = gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition());
  metrics::Recorder recorder(cluster);
  recorder.SubscribeTo(sim.bus());

  struct Seen {
    std::string what;
    RequestId rid;
    SimTime at = 0;
  };
  std::vector<Seen> seen;
  sim.bus().Subscribe<RequestSubmitted>([&](const RequestSubmitted& e) {
    seen.push_back({"submit", e.rid, e.at});
  });
  sim.bus().Subscribe<RequestCompleted>([&](const RequestCompleted& e) {
    seen.push_back({"complete", e.rid, e.at});
  });

  platform::PolicyBundle bundle;
  bundle.routing = std::make_unique<GreedyRouting>();
  bundle.scaling = std::make_unique<NoScaling>();
  platform::PlatformCore plat(sim, cluster, StudyFunctions(),
                              platform::PlatformConfig{}, std::move(bundle));

  for (int t = 0; t < 10; ++t) {
    sim.At(Millis(100 * t), [&plat] { plat.Submit(FunctionId(0)); });
  }
  sim.Run();

  ASSERT_EQ(seen.size(), 20u);  // 10 submits + 10 completes
  // Simulated time never goes backwards across the event stream.
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].at, seen[i - 1].at) << "event " << i;
  }
  // Every request's submit precedes its complete.
  for (const Seen& s : seen) {
    if (s.what != "complete") continue;
    bool submitted_before = false;
    for (const Seen& t : seen) {
      if (t.what == "submit" && t.rid == s.rid) {
        submitted_before = true;
        EXPECT_LE(t.at, s.at);
      }
      if (&t == &s) break;
    }
    EXPECT_TRUE(submitted_before) << "rid " << s.rid.value;
  }
  // The recorder, fed only by its subscription, saw the same traffic.
  EXPECT_EQ(recorder.total_requests(), 10u);
  EXPECT_EQ(recorder.completed_requests(), 10u);
}

}  // namespace
}  // namespace fluidfaas::sim
