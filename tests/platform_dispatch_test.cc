// DispatchPending's per-pass refusal bar: once the router refuses a
// function's request at due = max(deadline, now), no item of that function
// with due at or below it is offered again in the same pass, unless a
// placement or a bus publication during a Route call cleared the bars. The
// heavy-tier pins count both the Route calls and the items the pending
// queue offers, which its keep-through jumps keep near the Route count.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "harness/experiment.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/platform.h"
#include "platform/policy.h"
#include "trace/workload.h"

namespace fluidfaas::platform {
namespace {

std::vector<FunctionSpec> StudyFunctions() {
  std::vector<FunctionSpec> fns;
  int id = 0;
  for (auto& dag : model::BuildStudyApps(model::Variant::kSmall)) {
    const int app = id;
    fns.push_back(
        MakeFunctionSpec(FunctionId(id++), app, model::Variant::kSmall, dag,
                         1.5));
  }
  return fns;
}

/// Records every call and answers with the script (refuse by default).
struct Script {
  std::vector<RequestId> calls;
  std::function<bool(PlatformCore&, RequestId, FunctionId)> answer;
};

class ScriptedRouting final : public RoutingPolicy {
 public:
  explicit ScriptedRouting(std::shared_ptr<Script> script)
      : script_(std::move(script)) {}
  bool Route(PlatformCore& core, RequestId rid, FunctionId fn) override {
    script_->calls.push_back(rid);
    return script_->answer ? script_->answer(core, rid, fn) : false;
  }

 private:
  std::shared_ptr<Script> script_;
};

class NoScaling final : public ScalingPolicy {
 public:
  void Tick(PlatformCore&) override {}
};

/// Last in, first out: lets a test offer a function's later-due items
/// before its earlier-due ones.
class LifoQueue final : public qos::QueueDiscipline {
 public:
  const char* name() const override { return "lifo"; }
  void Enqueue(qos::QueueItem item) override {
    item.seq = NextSeq();
    items_.emplace(item.seq, item);
  }
  bool Remove(RequestId rid) override {
    return std::erase_if(items_, [rid](const auto& kv) {
             return kv.second.rid == rid;
           }) > 0;
  }
  void Drain(const DrainFn& fn) override {
    for (auto it = items_.begin(); it != items_.end();) {
      if (fn(it->second) == qos::DrainVerdict::kKeep) {
        ++it;
      } else {
        it = items_.erase(it);
      }
    }
  }
  std::size_t size() const override { return items_.size(); }
  std::size_t DepthOf(FunctionId fn) const override {
    std::size_t n = 0;
    for (const auto& [seq, item] : items_) n += item.fn == fn ? 1 : 0;
    return n;
  }
  std::vector<qos::QueueItem> Snapshot() const override {
    std::vector<qos::QueueItem> out;
    for (const auto& [seq, item] : items_) out.push_back(item);
    return out;
  }

 private:
  std::map<std::uint64_t, qos::QueueItem, std::greater<>> items_;
};

constexpr FunctionId kA(0);
constexpr FunctionId kB(1);

class DispatchTest : public ::testing::Test {
 protected:
  /// Build the core; `lifo` swaps in LifoQueue for the configured
  /// discipline (admission still follows `config.qos`).
  void Build(bool lifo, PlatformConfig config = PlatformConfig{}) {
    PolicyBundle b;
    b.routing = std::make_unique<ScriptedRouting>(script_);
    b.scaling = std::make_unique<NoScaling>();
    if (lifo) {
      b.queue = [](const qos::QosConfig& qos) {
        qos::QueuePolicy qp = qos::MakeQueuePolicy(qos);
        qp.discipline = std::make_unique<LifoQueue>();
        return qp;
      };
    }
    recorder_.SubscribeTo(sim_.bus());
    plat_ = std::make_unique<PlatformCore>(sim_, cluster_, StudyFunctions(),
                                           config, std::move(b));
  }

  /// Submit `fn` at `t` (the router refuses, so it lands in the pending
  /// set) and return its id once the clock has reached `t`.
  RequestId SubmitAt(SimTime t, FunctionId fn) {
    sim_.RunUntil(t);
    return plat_->Submit(fn);
  }

  /// Run one pass at the current time; the calls it made, in order.
  std::vector<RequestId> Pass() {
    script_->calls.clear();
    plat_->DispatchPending();
    return script_->calls;
  }

  sim::Simulator sim_;
  gpu::Cluster cluster_ = gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition());
  metrics::Recorder recorder_{cluster_};
  std::shared_ptr<Script> script_ = std::make_shared<Script>();
  std::unique_ptr<PlatformCore> plat_;
};

TEST_F(DispatchTest, RefusedDueBarsEarlierItemsOfThatFunction) {
  Build(/*lifo=*/true);
  SubmitAt(0, kA);
  SubmitAt(Millis(1), kA);
  const RequestId b1 = SubmitAt(Millis(2), kB);
  const RequestId a3 = SubmitAt(Millis(3), kA);
  // Offered a3, b1, a2, a1: a3's refusal bars a2 and a1 (earlier dues of
  // the same function); b1 belongs to another function.
  EXPECT_EQ(Pass(), (std::vector<RequestId>{a3, b1}));
  EXPECT_EQ(plat_->PendingCount(), 4u);
}

TEST_F(DispatchTest, LaterDueItemsAreStillOffered) {
  Build(/*lifo=*/false);  // fifo: a function's items in ascending due
  const RequestId a1 = SubmitAt(0, kA);
  const RequestId a2 = SubmitAt(Millis(1), kA);
  const RequestId b1 = SubmitAt(Millis(2), kB);
  const RequestId a3 = SubmitAt(Millis(3), kA);
  const std::vector<RequestId> calls = Pass();
  EXPECT_EQ(calls.size(), 4u);
  for (RequestId rid : {a1, a2, b1, a3}) {
    EXPECT_EQ(std::count(calls.begin(), calls.end(), rid), 1) << rid.value;
  }
}

TEST_F(DispatchTest, OverdueItemsShareTheBarAtNow) {
  Build(/*lifo=*/false);
  const SimDuration slo = StudyFunctions()[0].slo;
  const RequestId a1 = SubmitAt(0, kA);
  SubmitAt(Millis(1), kA);
  const RequestId b1 = SubmitAt(Millis(2), kB);
  // Past both A deadlines, due = now for each: one refusal covers both.
  sim_.RunUntil(slo + Millis(5));
  const RequestId a3 = SubmitAt(slo + Millis(5), kA);
  std::vector<RequestId> calls = Pass();
  std::sort(calls.begin(), calls.end());
  EXPECT_EQ(calls, (std::vector<RequestId>{a1, b1, a3}));
}

TEST_F(DispatchTest, PlacementClearsEveryBar) {
  Build(/*lifo=*/true);
  SubmitAt(0, kA);
  const RequestId a2 = SubmitAt(Millis(1), kA);
  const RequestId b1 = SubmitAt(Millis(2), kB);
  const RequestId a3 = SubmitAt(Millis(3), kA);
  // b1 is placed (the script admits it without an instance: only the
  // verdict matters here), so a2 is offered again, and its refusal bars a1.
  script_->answer = [b1](PlatformCore&, RequestId rid, FunctionId) {
    return rid == b1;
  };
  EXPECT_EQ(Pass(), (std::vector<RequestId>{a3, b1, a2}));
  EXPECT_EQ(plat_->PendingCount(), 3u);
}

TEST_F(DispatchTest, CommitInsideARefusedCallClearsEveryBar) {
  Build(/*lifo=*/true);
  SubmitAt(0, kA);
  const RequestId a2 = SubmitAt(Millis(1), kA);
  const RequestId b1 = SubmitAt(Millis(2), kB);
  const RequestId a3 = SubmitAt(Millis(3), kA);
  // b1's call launches an instance (a Commit publishes) yet refuses: the
  // state may have moved, so every function is offered again.
  script_->answer = [b1](PlatformCore& core, RequestId rid, FunctionId fn) {
    if (rid == b1) {
      EXPECT_NE(LaunchMonolithic(core, core.function(fn)), nullptr);
    }
    return false;
  };
  EXPECT_EQ(Pass(), (std::vector<RequestId>{a3, b1, a2}));
}

TEST_F(DispatchTest, ShedStillRejectsInfeasibleItemsBehindASkippedOne) {
  PlatformConfig config;
  config.qos.admission = "shed";
  Build(/*lifo=*/true, config);
  const FunctionSpec& spec = plat_->function(kA);
  const SimDuration est = spec.base_latency;  // cold: no load estimate
  // At `at`, a1 can no longer meet its deadline even unqueued; a2 and a3
  // still can.
  const SimTime at = spec.slo - est + Millis(1);
  ASSERT_GT(at, Millis(3));
  const RequestId a1 = SubmitAt(0, kA);
  const RequestId a2 = SubmitAt(Millis(2), kA);
  const RequestId a3 = SubmitAt(Millis(3), kA);
  sim_.RunUntil(at);
  // a3 is refused; a2 is skipped under the bar; a1 still meets the
  // admission review and is shed.
  EXPECT_EQ(Pass(), (std::vector<RequestId>{a3}));
  EXPECT_EQ(plat_->PendingCount(), 2u);
  EXPECT_TRUE(recorder_.record(a1).rejected);
  EXPECT_EQ(recorder_.record(a1).reject_cause,
            sim::RejectCause::kDeadlineInfeasible);
  EXPECT_FALSE(recorder_.record(a2).rejected);
}

// -- Route calls of the five built-in schedulers ------------------------------

class CountingRouting final : public RoutingPolicy {
 public:
  CountingRouting(std::unique_ptr<RoutingPolicy> inner, std::uint64_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}
  void Attach(PlatformCore& core) override { inner_->Attach(core); }
  bool Route(PlatformCore& core, RequestId rid, FunctionId fn) override {
    ++*calls_;
    return inner_->Route(core, rid, fn);
  }

 private:
  std::unique_ptr<RoutingPolicy> inner_;
  std::uint64_t* calls_;
};

/// Counts the items a discipline offers to the drain callback.
class CountingQueue final : public qos::QueueDiscipline {
 public:
  CountingQueue(std::unique_ptr<qos::QueueDiscipline> inner,
                std::uint64_t* offers)
      : inner_(std::move(inner)), offers_(offers) {}
  const char* name() const override { return inner_->name(); }
  void Enqueue(qos::QueueItem item) override { inner_->Enqueue(item); }
  bool Remove(RequestId rid) override { return inner_->Remove(rid); }
  void Drain(const DrainFn& fn) override {
    inner_->Drain([&](const qos::QueueItem& item) {
      ++*offers_;
      return fn(item);
    });
  }
  std::size_t size() const override { return inner_->size(); }
  std::size_t DepthOf(FunctionId fn) const override {
    return inner_->DepthOf(fn);
  }
  std::vector<qos::QueueItem> Snapshot() const override {
    return inner_->Snapshot();
  }
  qos::StageOrder stage_order() const override {
    return inner_->stage_order();
  }

 private:
  std::unique_ptr<qos::QueueDiscipline> inner_;
  std::uint64_t* offers_;
};

struct RouteCount {
  std::uint64_t calls = 0;
  std::uint64_t offers = 0;  // items the pending queue offered to Route
  std::size_t requests = 0;
};

/// The heavy tier for 60 s on `num_nodes` nodes of 8 GPUs (seed 1234,
/// fault-free, fifo/none), run the way harness::RunContext runs it, with
/// the bundle's router wrapped in a call counter and its pending queue in
/// an offer counter.
RouteCount CountHeavyRouteCalls(harness::SystemKind system, int num_nodes) {
  harness::ExperimentConfig config;
  config.system = system;
  config.num_nodes = num_nodes;
  config.tier = trace::WorkloadTier::kHeavy;
  config.duration = Seconds(60);
  gpu::Cluster cluster(std::vector<std::vector<gpu::MigPartition>>(
      static_cast<std::size_t>(config.num_nodes),
      gpu::PartitionSchemeP1(config.gpus_per_node)));
  trace::WorkloadParams wp;
  wp.slo_scale = config.platform.slo_scale;
  wp.duration = config.duration;
  wp.seed = config.seed;
  wp.max_stages = config.platform.max_stages;
  const trace::Workload workload =
      trace::MakeWorkload(config.tier, cluster, wp);

  sim::Simulator sim;
  metrics::Recorder recorder(cluster);
  recorder.SubscribeTo(sim.bus());
  RouteCount count;
  PolicyBundle bundle = harness::MakeBundle(system);
  bundle.routing = std::make_unique<CountingRouting>(std::move(bundle.routing),
                                                     &count.calls);
  bundle.queue = [&count](const qos::QosConfig& qos) {
    qos::QueuePolicy qp = qos::MakeQueuePolicy(qos);
    qp.discipline = std::make_unique<CountingQueue>(std::move(qp.discipline),
                                                    &count.offers);
    return qp;
  };
  PlatformCore core(sim, cluster, workload.functions, config.platform,
                    std::move(bundle));
  core.Start();
  for (const trace::Invocation& inv : workload.trace) {
    sim.At(inv.time, [&core, fn = inv.fn] { core.Submit(fn); });
  }
  sim.RunUntil(config.duration);
  const SimTime cap = config.duration + config.drain_cap;
  while (recorder.finished_requests() < recorder.total_requests() &&
         sim.Now() < cap) {
    sim.RunUntil(sim.Now() + Seconds(1.0));
  }
  core.Stop();
  count.requests = recorder.total_requests();
  return count;
}

TEST(DispatchRouteCallsTest, HeavyTierPinnedAndUnderTwentyPerRequest) {
  struct Pinned {
    harness::SystemKind system;
    std::uint64_t calls;
    std::uint64_t offers;
  };
  // Deterministic: a different Route count means a pass offers a different
  // set of items to the routers; a different offer count with the same
  // Route count means the queue skips a different set of refused items.
  constexpr Pinned kPinned[] = {
      {harness::SystemKind::kFluidFaas, 9274, 7997},
      {harness::SystemKind::kFluidFaasDistributed, 4376, 3099},
      {harness::SystemKind::kEsg, 16953, 15676},
      {harness::SystemKind::kInfless, 12397, 11120},
      {harness::SystemKind::kRepartition, 13458, 14252},
  };
  for (const Pinned& p : kPinned) {
    const RouteCount c = CountHeavyRouteCalls(p.system, 2);
    ASSERT_GT(c.requests, 0u);
    const auto requests = static_cast<double>(c.requests);
    EXPECT_EQ(c.calls, p.calls)
        << harness::Name(p.system) << ", " << c.requests << " requests";
    EXPECT_LT(static_cast<double>(c.calls) / requests, 20.0)
        << harness::Name(p.system) << ": " << c.calls << " calls for "
        << c.requests << " requests";
    EXPECT_EQ(c.offers, p.offers)
        << harness::Name(p.system) << ", " << c.requests << " requests";
    EXPECT_LT(static_cast<double>(c.offers) / requests, 50.0)
        << harness::Name(p.system) << ": " << c.offers << " offers for "
        << c.requests << " requests";
  }
}

// The same counts on 32 nodes (16x the paper cluster and request rate).
// Pinned exactly, with no per-request bound: fewer than 20 Route calls per
// request at this scale is still an open target.
TEST(DispatchRouteCallsTest, HeavyThirtyTwoNodesPinned) {
  struct Pinned {
    harness::SystemKind system;
    std::uint64_t calls;
    std::uint64_t offers;
  };
  constexpr Pinned kPinned[] = {
      {harness::SystemKind::kFluidFaas, 645021, 624036},
      {harness::SystemKind::kFluidFaasDistributed, 20985, 0},
      {harness::SystemKind::kEsg, 1852295, 1831310},
      {harness::SystemKind::kInfless, 1942047, 1921062},
      {harness::SystemKind::kRepartition, 1725758, 1735987},
  };
  for (const Pinned& p : kPinned) {
    const RouteCount c = CountHeavyRouteCalls(p.system, 32);
    ASSERT_GT(c.requests, 0u);
    EXPECT_EQ(c.calls, p.calls)
        << harness::Name(p.system) << ", " << c.requests << " requests";
    EXPECT_EQ(c.offers, p.offers)
        << harness::Name(p.system) << ", " << c.requests << " requests";
  }
}

}  // namespace
}  // namespace fluidfaas::platform
