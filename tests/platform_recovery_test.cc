// Failure recovery in PlatformCore: crash harvesting, bounded retries with
// exponential backoff, pipeline resume-at-stage, armed cold-start /
// slow-start faults, slice failure + repair, and the two flavours of
// enforcement-timeout expiry (see DESIGN.md "Failure model").
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/partitioner.h"
#include "core/pipeline.h"
#include "gpu/cluster.h"
#include "metrics/recorder.h"
#include "model/app.h"
#include "platform/platform.h"
#include "platform/policy.h"
#include "sim/events.h"
#include "sim/simulator.h"

namespace fluidfaas::platform {
namespace {

model::ComponentSpec Comp(int idx, SimDuration t) {
  model::ComponentSpec c;
  c.id = ComponentId(idx);
  std::string name = "c";
  name += std::to_string(idx);
  c.name = std::move(name);
  c.cls = model::ComponentClass::kClassification;
  c.weights = GiB(1);
  c.activations = GiB(1);
  c.latency_1gpc = t;
  c.serial_fraction = 0.0;
  c.output_bytes = MiB(20);
  return c;
}

/// One 2-component chain (100 ms + 100 ms on a 1g slice).
FunctionSpec TwoCompSpec(FunctionId id = FunctionId(0),
                         double slo_scale = 1.5) {
  model::AppDag dag("app", {Comp(0, Millis(100)), Comp(1, Millis(100))},
                    {{-1, 0}, {0, 1}});
  return MakeFunctionSpec(id, 0, model::Variant::kSmall, std::move(dag),
                          slo_scale);
}

struct RouteKnobs {
  bool accept = true;      // false: leave everything in the pending set
  bool pipelined = false;  // launch 2-stage pipelines instead of monoliths
};

/// Hand-built 2-stage plan on the first two free slices of node 0 (all
/// slices in these tests are 1g.10gb).
std::optional<core::PipelinePlan> TwoStagePlan(PlatformCore& core,
                                               const FunctionSpec& spec) {
  const std::vector<SliceId> free =
      gpu::ClusterView(core.cluster()).FreeSlicesOnNode(NodeId(0));
  if (free.size() < 2) return std::nullopt;
  core::PipelinePlan plan;
  plan.node = NodeId(0);
  for (int i = 0; i < 2; ++i) {
    core::StageBinding b;
    b.plan = *core::MakeStagePlan(spec.dag, i, i + 1);
    b.slice = free[static_cast<std::size_t>(i)];
    b.profile = gpu::MigProfile::k1g10gb;
    b.exec_time = Millis(100);
    b.hop_out = (i == 0) ? Millis(10) : 0;
    plan.stages.push_back(b);
  }
  return plan;
}

class FlexRouting final : public RoutingPolicy {
 public:
  explicit FlexRouting(std::shared_ptr<RouteKnobs> knobs)
      : knobs_(std::move(knobs)) {}

  bool Route(PlatformCore& core, RequestId rid, FunctionId fn) override {
    if (!knobs_->accept) return false;
    Instance* target = nullptr;
    for (Instance* i : core.InstancesOf(fn)) {
      if (i->CanAdmit()) target = i;
    }
    if (target == nullptr) {
      const FunctionSpec& spec = core.function(fn);
      std::optional<core::PipelinePlan> plan;
      if (knobs_->pipelined) {
        plan = TwoStagePlan(core, spec);
      } else {
        auto sid = gpu::ClusterView(core.cluster())
                       .SmallestFreeSliceWithMemory(spec.total_memory);
        if (sid) {
          plan = core::MonolithicPlanOnSlice(spec.dag, core.cluster(), *sid);
        }
      }
      if (!plan) return false;
      const CommitResult result =
          core.Commit(SpawnPlan(fn, std::move(*plan), core.IsWarm(fn)));
      if (!result.ok()) return false;
      target = result.spawned.front();
    }
    target->Enqueue(rid, core.JitterOf(rid));
    return true;
  }

 private:
  std::shared_ptr<RouteKnobs> knobs_;
};

class NoScaling final : public ScalingPolicy {
 public:
  void Tick(PlatformCore&) override {}
};

/// A simulator + 6-slice cluster + recorder + platform, rebuilt per
/// scenario so each test picks its own PlatformConfig / retry policy.
struct World {
  sim::Simulator sim;
  gpu::Cluster cluster;
  metrics::Recorder recorder;
  std::shared_ptr<RouteKnobs> knobs;
  std::unique_ptr<PlatformCore> plat;

  explicit World(PlatformConfig cfg = JitterFree(),
                 std::unique_ptr<RetryPolicy> retry = nullptr,
                 std::vector<FunctionSpec> fns = {TwoCompSpec()})
      : cluster(gpu::Cluster::Uniform(
            1, 2, gpu::MigPartition::Parse("1g.10gb+1g.10gb+1g.10gb"))),
        recorder(cluster),
        knobs(std::make_shared<RouteKnobs>()) {
    recorder.SubscribeTo(sim.bus());
    PolicyBundle bundle;
    bundle.routing = std::make_unique<FlexRouting>(knobs);
    bundle.scaling = std::make_unique<NoScaling>();
    bundle.retry = std::move(retry);
    plat = std::make_unique<PlatformCore>(sim, cluster, std::move(fns), cfg,
                                          std::move(bundle));
  }

  static PlatformConfig JitterFree() {
    PlatformConfig cfg;
    cfg.service_jitter_cv = 0.0;  // exact, repeatable request timings
    return cfg;
  }

  Instance* only_instance() const {
    auto live = plat->InstancesOf(FunctionId(0));
    EXPECT_EQ(live.size(), 1u);
    return live.empty() ? nullptr : live.front();
  }
};

// --- retry policy ----------------------------------------------------------

TEST(RetryPolicyTest, BoundedBackoffIsExponential) {
  World w;
  BoundedRetryPolicy policy(3, Millis(10), 3.0);
  const RequestId rid(0);
  const FunctionId fn(0);
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const auto d = policy.OnFailure(*w.plat, rid, fn, attempt);
    EXPECT_TRUE(d.retry) << attempt;
    EXPECT_EQ(d.backoff, Millis(10 * std::pow(3.0, attempt - 1))) << attempt;
  }
  EXPECT_FALSE(policy.OnFailure(*w.plat, rid, fn, 4).retry);
}

TEST(RetryPolicyTest, PlatformDefaultMatchesConfig) {
  // The core installs BoundedRetryPolicy(2, 50ms, 2.0) from PlatformConfig
  // when the bundle supplies none; spot-check that schedule directly.
  World w;
  BoundedRetryPolicy policy(PlatformConfig{}.retry.max_retries,
                            PlatformConfig{}.retry.base_backoff,
                            PlatformConfig{}.retry.backoff_multiplier);
  EXPECT_EQ(policy.OnFailure(*w.plat, RequestId(0), FunctionId(0), 1).backoff,
            Millis(50));
  EXPECT_EQ(policy.OnFailure(*w.plat, RequestId(0), FunctionId(0), 2).backoff,
            Millis(100));
  EXPECT_FALSE(policy.OnFailure(*w.plat, RequestId(0), FunctionId(0), 3)
                   .retry);
}

// --- crash and retry --------------------------------------------------------

TEST(RecoveryTest, CrashedRequestIsRetriedAndRecovers) {
  World w;
  const RequestId rid = w.plat->Submit(FunctionId(0));
  Instance* first = w.only_instance();
  w.sim.At(Millis(5), [&] {
    w.plat->FailInstance(first, sim::FaultKind::kInstanceCrash);
  });
  w.sim.Run();

  EXPECT_EQ(w.recorder.completed_requests(), 1u);
  EXPECT_EQ(w.recorder.instances_failed(), 1u);
  EXPECT_EQ(w.recorder.retries_total(), 1u);
  EXPECT_EQ(w.recorder.record(rid).retries, 1);
  EXPECT_EQ(w.recorder.RecoveredRequests(), 1u);
  EXPECT_EQ(w.recorder.abandoned_requests(), 0u);
  EXPECT_TRUE(w.recorder.record(rid).done());
}

TEST(RecoveryTest, CrashLeavesNoReplacementAndRoutingRecovers) {
  World w;
  w.plat->Submit(FunctionId(0));
  Instance* first = w.only_instance();
  w.plat->FailInstance(first, sim::FaultKind::kInstanceCrash);
  EXPECT_EQ(first->state(), InstanceState::kFailed);
  // The core launches nothing in the crashed instance's place.
  EXPECT_TRUE(w.plat->InstancesOf(FunctionId(0)).empty());
  // The retried request still completes: routing launches a fresh instance.
  w.sim.Run();
  EXPECT_EQ(w.recorder.completed_requests(), 1u);
  EXPECT_EQ(w.recorder.retries_total(), 1u);
  Instance* second = w.only_instance();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second->id(), first->id());
}

TEST(RecoveryTest, RetryBudgetExhaustionAbandons) {
  PlatformConfig cfg = World::JitterFree();
  cfg.retry.max_retries = 1;
  cfg.retry.base_backoff = Millis(10);
  World w(cfg);
  const RequestId rid = w.plat->Submit(FunctionId(0));
  // Crash whatever serves the request: once just after submission, once
  // after the first retry has been re-admitted (backoff 10 ms).
  w.sim.At(Millis(5), [&] {
    w.plat->FailInstance(w.plat->InstancesOf(FunctionId(0)).front(),
                         sim::FaultKind::kInstanceCrash);
  });
  w.sim.At(Millis(30), [&] {
    w.plat->FailInstance(w.plat->InstancesOf(FunctionId(0)).front(),
                         sim::FaultKind::kInstanceCrash);
  });
  int abandoned_attempts = 0;
  w.sim.bus().Subscribe<sim::RequestAbandoned>(
      [&](const sim::RequestAbandoned& e) {
        EXPECT_EQ(e.rid, rid);
        abandoned_attempts = e.attempts;
      });
  w.sim.Run();

  EXPECT_EQ(w.recorder.completed_requests(), 0u);
  EXPECT_EQ(w.recorder.abandoned_requests(), 1u);
  EXPECT_EQ(w.recorder.aborted_requests(), 1u);
  EXPECT_EQ(abandoned_attempts, 2);
  EXPECT_EQ(w.recorder.retries_total(), 1u);  // one retry, then give-up
  EXPECT_EQ(w.recorder.instances_failed(), 2u);
  // Terminal either way: the drain condition counts it as finished.
  EXPECT_EQ(w.recorder.finished_requests(), 1u);
}

TEST(RecoveryTest, NoRetryPolicyFailsFast) {
  World w(World::JitterFree(), std::make_unique<NoRetryPolicy>());
  w.plat->Submit(FunctionId(0));
  w.plat->FailInstance(w.only_instance(), sim::FaultKind::kInstanceCrash);
  w.sim.Run();
  EXPECT_EQ(w.recorder.completed_requests(), 0u);
  EXPECT_EQ(w.recorder.abandoned_requests(), 1u);
  EXPECT_EQ(w.recorder.retries_total(), 0u);
}

// --- pipeline resume --------------------------------------------------------

TEST(RecoveryTest, PipelineRetryResumesAtTheFailedStage) {
  World w;
  w.knobs->pipelined = true;
  const RequestId rid = w.plat->Submit(FunctionId(0));
  Instance* first = w.only_instance();
  ASSERT_EQ(first->plan().num_stages(), 2);
  const SliceId stage1 = first->plan().stages[1].slice;
  // A second pipeline of the same shape, which survives the crash.
  auto plan = TwoStagePlan(*w.plat, w.plat->function(FunctionId(0)));
  ASSERT_TRUE(plan.has_value());
  const CommitResult survivor =
      w.plat->Commit(SpawnPlan(FunctionId(0), std::move(*plan), false));
  ASSERT_TRUE(survivor.ok());

  // Crash mid-way through stage 1 (the 100 ms second stage): stage 0 work
  // is complete, so the retry must not replay it.
  bool armed = false;
  w.sim.bus().Subscribe<sim::SliceBusyBegin>(
      [&](const sim::SliceBusyBegin& e) {
        if (e.slice != stage1 || armed) return;
        armed = true;
        w.sim.After(Millis(50), [&] {
          w.plat->FailInstance(first, sim::FaultKind::kInstanceCrash);
        });
      });
  std::vector<bool> resumes;
  w.sim.bus().Subscribe<sim::RequestRetried>(
      [&](const sim::RequestRetried& e) { resumes.push_back(e.resume); });
  w.sim.Run();

  ASSERT_TRUE(armed);
  ASSERT_EQ(resumes.size(), 1u);
  // The surviving same-shape pipeline admitted the request directly at
  // stage 1 instead of replaying the whole pipeline.
  EXPECT_TRUE(resumes.front());
  EXPECT_EQ(w.recorder.completed_requests(), 1u);
  EXPECT_EQ(w.recorder.record(rid).retries, 1);
  EXPECT_EQ(w.recorder.RecoveredRequests(), 1u);
}

// --- armed faults -----------------------------------------------------------

TEST(RecoveryTest, ArmedColdStartFailureDoomsTheNextLaunch) {
  World w;
  w.sim.bus().Publish(sim::ColdStartFailureArmed{w.sim.Now()});
  const RequestId rid = w.plat->Submit(FunctionId(0));
  sim::FaultKind cause = sim::FaultKind::kInstanceCrash;
  std::size_t failures = 0;
  w.sim.bus().Subscribe<sim::InstanceFailed>(
      [&](const sim::InstanceFailed& e) {
        cause = e.cause;
        ++failures;
      });
  w.sim.Run();

  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(cause, sim::FaultKind::kColdStartFailure);
  // The retry path relaunches through routing and the request still
  // completes.
  EXPECT_EQ(w.recorder.completed_requests(), 1u);
  EXPECT_EQ(w.recorder.record(rid).retries, 1);
}

TEST(RecoveryTest, ArmedSlowStartStretchesTheNextLoad) {
  // Baseline: untouched cold start.
  World base;
  const RequestId r0 = base.plat->Submit(FunctionId(0));
  base.sim.Run();
  const SimDuration plain_load = base.recorder.record(r0).load_time;
  ASSERT_GT(plain_load, 0);

  World w;
  w.sim.bus().Publish(sim::SlowStartArmed{4.0, w.sim.Now()});
  const RequestId r1 = w.plat->Submit(FunctionId(0));
  w.sim.Run();
  EXPECT_EQ(w.recorder.record(r1).load_time, 4 * plain_load);
  EXPECT_EQ(w.recorder.record(r1).completion,
            base.recorder.record(r0).completion + 3 * plain_load);
  // The straggler multiplier is one-shot: a second launch is nominal.
  const RequestId r2 = w.plat->Submit(FunctionId(0));
  w.sim.Run();
  EXPECT_EQ(w.recorder.record(r2).load_time, 0);  // reused warm instance
}

// --- slice failure ----------------------------------------------------------

TEST(RecoveryTest, SliceFailureCrashesTheOccupantAndRepairs) {
  World w;
  const RequestId rid = w.plat->Submit(FunctionId(0));
  Instance* first = w.only_instance();
  const SliceId sid = first->plan().stages[0].slice;
  w.sim.At(Millis(5), [&] {
    w.sim.bus().Publish(
        sim::SliceFailureRequested{sid, w.sim.Now(), Seconds(5)});
  });
  SimTime repaired_at = -1;
  w.sim.bus().Subscribe<sim::SliceRepaired>(
      [&](const sim::SliceRepaired& e) { repaired_at = e.at; });
  w.sim.At(Millis(10), [&] {
    // Strong isolation: only the failed slice is quarantined...
    EXPECT_TRUE(w.cluster.IsFailed(sid));
    for (SliceId s : w.cluster.AllSlices()) {
      EXPECT_EQ(w.cluster.IsFailed(s), s == sid);
    }
    // ...and only its occupant crashed.
    EXPECT_EQ(first->state(), InstanceState::kFailed);
  });
  w.sim.Run();

  EXPECT_EQ(repaired_at, Millis(5) + Seconds(5));
  EXPECT_FALSE(w.cluster.IsFailed(sid));
  EXPECT_EQ(w.recorder.slices_failed(), 1u);
  EXPECT_EQ(w.recorder.slices_repaired(), 1u);
  EXPECT_EQ(w.recorder.instances_failed(), 1u);
  // The victim rode the retry path to completion on another slice.
  EXPECT_EQ(w.recorder.completed_requests(), 1u);
  EXPECT_EQ(w.recorder.record(rid).retries, 1);
}

TEST(RecoveryTest, FreeSliceFailureQuarantinesWithoutCasualties) {
  World w;
  w.sim.bus().Publish(
      sim::SliceFailureRequested{SliceId(3), w.sim.Now(), Seconds(2)});
  EXPECT_TRUE(w.cluster.IsFailed(SliceId(3)));
  w.sim.Run();
  EXPECT_FALSE(w.cluster.IsFailed(SliceId(3)));
  EXPECT_EQ(w.recorder.slices_failed(), 1u);
  EXPECT_EQ(w.recorder.slices_repaired(), 1u);
  EXPECT_EQ(w.recorder.instances_failed(), 0u);
}

TEST(RecoveryTest, CommandsNamingDeadEntitiesAreDropped) {
  World w;
  // Unknown / sentinel instance ids and already-failed instances must all
  // be ignored (the injector's RNG has already been consumed either way).
  w.sim.bus().Publish(sim::InstanceCrashRequested{InstanceId(999), 0});
  w.sim.bus().Publish(sim::InstanceCrashRequested{InstanceId(), 0});
  EXPECT_EQ(w.recorder.instances_failed(), 0u);

  w.plat->Submit(FunctionId(0));
  Instance* first = w.only_instance();
  w.plat->FailInstance(first, sim::FaultKind::kInstanceCrash);
  EXPECT_EQ(w.recorder.instances_failed(), 1u);
  w.sim.bus().Publish(sim::InstanceCrashRequested{first->id(), 0});
  EXPECT_EQ(w.recorder.instances_failed(), 1u);  // double-kill dropped
  // A slice failure aimed at an already-failed slice is dropped too.
  w.sim.bus().Publish(
      sim::SliceFailureRequested{SliceId(0), w.sim.Now(), Seconds(1)});
  w.sim.bus().Publish(
      sim::SliceFailureRequested{SliceId(0), w.sim.Now(), Seconds(1)});
  EXPECT_EQ(w.recorder.slices_failed(), 1u);
  w.sim.Run();
}

// --- enforcement timeouts ---------------------------------------------------

TEST(TimeoutTest, MidPendingExpiryCancelsOutright) {
  PlatformConfig cfg = World::JitterFree();
  cfg.request_timeout_scale = 1.0;
  World w(cfg);
  w.knobs->accept = false;  // park the request in the pending set
  const RequestId rid = w.plat->Submit(FunctionId(0));
  EXPECT_EQ(w.plat->queue().size(), 1u);

  bool mid_execution = true;
  w.sim.bus().Subscribe<sim::RequestTimedOut>(
      [&](const sim::RequestTimedOut& e) { mid_execution = e.mid_execution; });
  w.sim.Run();

  EXPECT_FALSE(mid_execution);
  EXPECT_EQ(w.plat->queue().size(), 0u);
  EXPECT_EQ(w.recorder.completed_requests(), 0u);
  EXPECT_EQ(w.recorder.timeouts(), 1u);
  EXPECT_EQ(w.recorder.aborted_requests(), 1u);
  EXPECT_EQ(w.recorder.finished_requests(), 1u);
  EXPECT_TRUE(w.recorder.record(rid).timed_out);
  EXPECT_TRUE(w.recorder.record(rid).aborted);
}

TEST(TimeoutTest, MidQueueAbortsButMidExecutionRunsToCompletion) {
  // Calibrate: where does an uncontended request start executing and
  // finish? (Jitter is off, so the timings replay exactly.)
  World base;
  const RequestId probe = base.plat->Submit(FunctionId(0));
  base.sim.Run();
  const auto& rec = base.recorder.record(probe);
  const SimTime completion = rec.completion;
  const SimDuration exec = rec.exec_time;
  ASSERT_GT(exec, 0);

  // Aim both expiry timers inside the first request's execution window:
  // request A is mid-execution (finishes, loses goodput), request B is
  // still queued behind it on the instance (aborted on the spot).
  const SimTime expire = completion - exec / 2;
  PlatformConfig cfg = World::JitterFree();
  const SimDuration slo = base.plat->function(FunctionId(0)).slo;
  cfg.request_timeout_scale =
      static_cast<double>(expire) / static_cast<double>(slo);
  World w(cfg);
  const RequestId ra = w.plat->Submit(FunctionId(0));
  const RequestId rb = w.plat->Submit(FunctionId(0));
  std::vector<std::pair<RequestId, bool>> seen;
  w.sim.bus().Subscribe<sim::RequestTimedOut>(
      [&](const sim::RequestTimedOut& e) {
        seen.push_back({e.rid, e.mid_execution});
      });
  w.sim.Run();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(ra, true));   // executing: flagged only
  EXPECT_EQ(seen[1], std::make_pair(rb, false));  // queued: cancelled
  EXPECT_EQ(w.recorder.completed_requests(), 1u);
  EXPECT_EQ(w.recorder.timeouts(), 2u);
  EXPECT_EQ(w.recorder.aborted_requests(), 1u);
  EXPECT_EQ(w.recorder.finished_requests(), 2u);
  // The mid-execution one completed — on time by the SLO's reckoning even —
  // but a timed-out request can never count as goodput.
  EXPECT_TRUE(w.recorder.record(ra).done());
  EXPECT_TRUE(w.recorder.record(ra).timed_out);
  EXPECT_FALSE(w.recorder.record(ra).Goodput());
  EXPECT_FALSE(w.recorder.record(rb).done());
}

TEST(TimeoutTest, TimedOutVictimIsNotRetried) {
  // A request whose enforcement timeout already fired is abandoned, not
  // retried, when its instance later crashes.
  World base;
  const RequestId probe = base.plat->Submit(FunctionId(0));
  base.sim.Run();
  const auto& rec = base.recorder.record(probe);
  const SimTime expire = rec.completion - rec.exec_time / 2;

  PlatformConfig cfg = World::JitterFree();
  const SimDuration slo = base.plat->function(FunctionId(0)).slo;
  cfg.request_timeout_scale =
      static_cast<double>(expire) / static_cast<double>(slo);
  World w(cfg);
  w.plat->Submit(FunctionId(0));
  Instance* first = w.only_instance();
  // Crash after the timeout flagged the request mid-execution.
  w.sim.At(expire + Millis(1), [&] {
    w.plat->FailInstance(first, sim::FaultKind::kInstanceCrash);
  });
  w.sim.Run();

  EXPECT_EQ(w.recorder.completed_requests(), 0u);
  EXPECT_EQ(w.recorder.retries_total(), 0u);
  EXPECT_EQ(w.recorder.abandoned_requests(), 1u);
  EXPECT_EQ(w.recorder.timeouts(), 1u);
}

TEST(TimeoutTest, ExpiryOnTheCompletionMicrosecondWins) {
  // Two requests of one function queue on one instance; B finishes at
  // `completion`. Both expire then: A's timer finds A finished, and B's is
  // armed only when A's fires. It still fires under the id B's Submit
  // reserved, before B's completion event (scheduled when B started to
  // execute), so B is flagged timed out and is not goodput.
  World base;
  base.plat->Submit(FunctionId(0));
  const RequestId probe = base.plat->Submit(FunctionId(0));
  base.sim.Run();
  const SimTime completion = base.recorder.record(probe).completion;

  PlatformConfig cfg = World::JitterFree();
  const SimDuration slo = base.plat->function(FunctionId(0)).slo;
  cfg.request_timeout_scale =
      static_cast<double>(completion) / static_cast<double>(slo);
  World w(cfg);
  const RequestId ra = w.plat->Submit(FunctionId(0));
  const RequestId rb = w.plat->Submit(FunctionId(0));
  std::vector<sim::RequestTimedOut> seen;
  w.sim.bus().Subscribe<sim::RequestTimedOut>(
      [&](const sim::RequestTimedOut& e) { seen.push_back(e); });
  w.sim.Run();

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].rid, rb);
  EXPECT_TRUE(seen[0].mid_execution);
  EXPECT_EQ(seen[0].at, completion);
  EXPECT_EQ(w.recorder.record(rb).completion, completion);
  EXPECT_TRUE(w.recorder.record(rb).timed_out);
  EXPECT_FALSE(w.recorder.record(rb).Goodput());
  EXPECT_TRUE(w.recorder.record(ra).done());
  EXPECT_FALSE(w.recorder.record(ra).timed_out);
  EXPECT_EQ(w.recorder.completed_requests(), 2u);
}

TEST(TimeoutTest, ExpiriesOfTwoFunctionsInterleave) {
  // Every request waits in the pending set, so each one times out at its
  // own Submit time + SLO. The two SLOs differ, so the two functions'
  // expiries interleave; ties fire in Submit order.
  PlatformConfig cfg = World::JitterFree();
  cfg.request_timeout_scale = 1.0;
  World w(cfg, nullptr,
          {TwoCompSpec(FunctionId(0), 1.5), TwoCompSpec(FunctionId(1), 4.0)});
  w.knobs->accept = false;
  const SimDuration slo0 = w.plat->function(FunctionId(0)).slo;
  const SimDuration slo1 = w.plat->function(FunctionId(1)).slo;
  ASSERT_GT(slo1, 2 * slo0);

  struct Expected {
    SimTime expire;
    RequestId rid;
  };
  std::vector<Expected> expected;
  const auto submit_at = [&](SimTime t, int fn) {
    w.sim.At(t, [&w, &expected, t, fn] {
      const FunctionId f(fn);
      const RequestId rid = w.plat->Submit(f);
      expected.push_back({t + w.plat->function(f).slo, rid});
    });
  };
  submit_at(0, 1);
  submit_at(0, 0);
  submit_at(slo0 / 2, 0);
  submit_at(slo0, 1);
  submit_at(slo1 - slo0, 0);  // ties the first request of function 1
  submit_at(slo1 - slo0 / 2, 0);
  submit_at(slo1, 0);
  std::vector<std::pair<SimTime, RequestId>> seen;
  w.sim.bus().Subscribe<sim::RequestTimedOut>(
      [&](const sim::RequestTimedOut& e) {
        EXPECT_FALSE(e.mid_execution);
        seen.emplace_back(e.at, e.rid);
      });
  w.sim.Run();

  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     return a.expire < b.expire;
                   });
  std::vector<std::pair<SimTime, RequestId>> want;
  for (const Expected& e : expected) want.emplace_back(e.expire, e.rid);
  EXPECT_EQ(seen, want);
  // The lanes interleave: function 1's first expiry falls between
  // function 0's.
  ASSERT_EQ(want.size(), 7u);
  EXPECT_EQ(want[2].second, RequestId(0));
  EXPECT_EQ(want[3].second, RequestId(4));
  EXPECT_EQ(w.recorder.timeouts(), 7u);
  EXPECT_EQ(w.plat->queue().size(), 0u);
}

TEST(TimeoutTest, RequestsFinishedInTimeLeaveOneTimerEvent) {
  // Ten requests all finish before their 50x-SLO expiry (the cold start
  // alone outlasts a few SLOs). Only the first timer is ever scheduled: it
  // fires, finds its request finished, drops the nine others and arms
  // nothing. One timer per request would add ten no-op events, not one.
  const auto run = [](double timeout_scale) {
    PlatformConfig cfg = World::JitterFree();
    cfg.request_timeout_scale = timeout_scale;
    World w(cfg);
    for (int i = 0; i < 10; ++i) w.plat->Submit(FunctionId(0));
    w.sim.Run();
    EXPECT_EQ(w.recorder.completed_requests(), 10u);
    EXPECT_EQ(w.recorder.timeouts(), 0u);
    EXPECT_EQ(w.sim.pending(), 0u);
    return w.sim.events_executed();
  };
  const std::uint64_t untimed = run(0.0);
  EXPECT_EQ(run(50.0), untimed + 1);
  EXPECT_EQ(untimed, 11u);
}

}  // namespace
}  // namespace fluidfaas::platform
