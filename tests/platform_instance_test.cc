#include "platform/instance.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "core/partitioner.h"
#include "core/pipeline.h"
#include "gpu/cluster.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
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

// Fixture wiring a simulator, cluster, recorder, a 2-component DAG and a
// hand-built plan (1 or 2 stages on 1g slices).
class InstanceTest : public ::testing::Test {
 protected:
  InstanceTest()
      : cluster_(gpu::Cluster::Uniform(1, 1,
                                       gpu::MigPartition::Parse(
                                           "1g.10gb+1g.10gb+1g.10gb"))),
        recorder_(cluster_),
        dag_("app",
             {Comp(0, Millis(100)), Comp(1, Millis(100))},
             {{-1, 0}, {0, 1}}) {
    recorder_.SubscribeTo(sim_.bus());
  }

  core::PipelinePlan OneStagePlan() {
    return *core::MonolithicPlanOnSlice(dag_, cluster_, SliceId(0));
  }

  core::PipelinePlan TwoStagePlan(SimDuration hop = Millis(10)) {
    core::PipelinePlan plan;
    plan.node = NodeId(0);
    for (int i = 0; i < 2; ++i) {
      core::StageBinding b;
      b.plan = *core::MakeStagePlan(dag_, i, i + 1);
      b.slice = SliceId(i);
      b.profile = gpu::MigProfile::k1g10gb;
      b.exec_time = Millis(100);
      b.hop_out = (i == 0) ? hop : 0;
      plan.stages.push_back(b);
    }
    return plan;
  }

  std::unique_ptr<Instance> Make(core::PipelinePlan plan,
                                 SimDuration load = 0) {
    for (const auto& s : plan.stages) {
      cluster_.Bind(s.slice, InstanceId(1));
      sim_.bus().Publish(sim::SliceBound{s.slice, InstanceId(1), sim_.Now()});
    }
    auto inst = std::make_unique<Instance>(
        InstanceId(1), FunctionId(0), std::move(plan), sim_,
        [this](RequestId rid) { completions_.push_back({rid, sim_.Now()}); });
    inst->Launch(load);
    return inst;
  }

  RequestId NewRequest() {
    const RequestId rid(static_cast<std::int32_t>(recorder_.total_requests()));
    sim_.bus().Publish(sim::RequestSubmitted{rid, FunctionId(0), sim_.Now(),
                                             sim_.Now() + Seconds(10)});
    return rid;
  }

  sim::Simulator sim_;
  gpu::Cluster cluster_;
  metrics::Recorder recorder_;
  model::AppDag dag_;
  std::vector<std::pair<RequestId, SimTime>> completions_;
};

TEST_F(InstanceTest, MonolithicServesSequentially) {
  auto inst = Make(OneStagePlan());
  EXPECT_EQ(inst->state(), InstanceState::kReady);
  const RequestId r1 = NewRequest();
  const RequestId r2 = NewRequest();
  inst->Enqueue(r1, 1.0);
  inst->Enqueue(r2, 1.0);
  EXPECT_EQ(inst->outstanding(), 2);
  sim_.Run();
  ASSERT_EQ(completions_.size(), 2u);
  // 200 ms service each (both components on one 1g slice), back to back.
  EXPECT_EQ(completions_[0], std::make_pair(r1, Millis(200)));
  EXPECT_EQ(completions_[1], std::make_pair(r2, Millis(400)));
  EXPECT_TRUE(inst->Idle());
}

TEST_F(InstanceTest, PipelineOverlapsStages) {
  auto inst = Make(TwoStagePlan(/*hop=*/0));
  const RequestId r1 = NewRequest();
  const RequestId r2 = NewRequest();
  inst->Enqueue(r1, 1.0);
  inst->Enqueue(r2, 1.0);
  sim_.Run();
  ASSERT_EQ(completions_.size(), 2u);
  // r1: 100 + 100 = 200 ms; r2 overlaps stage 0 while r1 is in stage 1,
  // completing at 300 ms — not the 400 ms a serial instance would need.
  EXPECT_EQ(completions_[0].second, Millis(200));
  EXPECT_EQ(completions_[1].second, Millis(300));
}

TEST_F(InstanceTest, HopDelaysArriveInTransferTime) {
  auto inst = Make(TwoStagePlan(/*hop=*/Millis(30)));
  const RequestId r1 = NewRequest();
  inst->Enqueue(r1, 1.0);
  sim_.Run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].second, Millis(230));
  const auto& rec = recorder_.record(r1);
  EXPECT_EQ(rec.transfer_time, Millis(30));
  EXPECT_EQ(rec.exec_time, Millis(200));
  EXPECT_EQ(rec.queue_time, 0);
  EXPECT_EQ(rec.load_time, 0);
}

TEST_F(InstanceTest, LoadingDelaysFirstRequestAsLoadTime) {
  auto inst = Make(OneStagePlan(), /*load=*/Millis(500));
  EXPECT_EQ(inst->state(), InstanceState::kLoading);
  const RequestId r1 = NewRequest();
  inst->Enqueue(r1, 1.0);  // admitted while loading
  sim_.Run();
  EXPECT_EQ(inst->state(), InstanceState::kReady);
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].second, Millis(700));
  EXPECT_EQ(recorder_.record(r1).load_time, Millis(500));
  EXPECT_EQ(recorder_.record(r1).queue_time, 0);
}

TEST_F(InstanceTest, QueueTimeAttributedToWaiters) {
  auto inst = Make(OneStagePlan());
  const RequestId r1 = NewRequest();
  const RequestId r2 = NewRequest();
  inst->Enqueue(r1, 1.0);
  inst->Enqueue(r2, 1.0);
  sim_.Run();
  EXPECT_EQ(recorder_.record(r1).queue_time, 0);
  EXPECT_EQ(recorder_.record(r2).queue_time, Millis(200));
}

TEST_F(InstanceTest, JitterScalesServiceTime) {
  auto inst = Make(OneStagePlan());
  const RequestId r1 = NewRequest();
  inst->Enqueue(r1, 1.5);
  sim_.Run();
  EXPECT_EQ(completions_[0].second, Millis(300));
  EXPECT_EQ(recorder_.record(r1).exec_time, Millis(300));
}

TEST_F(InstanceTest, CapacityAndEstimates) {
  auto inst = Make(TwoStagePlan(/*hop=*/0));
  // Bottleneck 100 ms -> 10 rps.
  EXPECT_NEAR(inst->CapacityRps(), 10.0, 1e-9);
  EXPECT_EQ(inst->ServiceLatency(), Millis(200));
  EXPECT_EQ(inst->EstimateCompletion(0), Millis(200));
  const RequestId r1 = NewRequest();
  inst->Enqueue(r1, 1.0);
  EXPECT_EQ(inst->EstimateCompletion(0), Millis(300));
  sim_.Run();
}

TEST_F(InstanceTest, AdmitWithinBoundAllowsPipelineConcurrency) {
  auto inst = Make(TwoStagePlan(/*hop=*/0));
  // slo shorter than e2e: the 2x service-latency floor still admits one
  // in-flight plus one queued.
  // Bound = deadline (150 ms) + max(slo, 2 x 200 ms e2e) = 550 ms.
  // Estimates with k queued are 200 + 100k ms: k = 0..3 admit, k = 4 does
  // not — so the pipeline holds several requests in flight despite the SLO
  // slack being below its bottleneck time.
  const SimDuration slo = Millis(150);
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(inst->AdmitWithinBound(0, Millis(150), slo)) << k;
    inst->Enqueue(NewRequest(), 1.0);
  }
  EXPECT_FALSE(inst->AdmitWithinBound(0, Millis(150), slo));
  sim_.Run();
}

TEST_F(InstanceTest, AdmitsFromIsTheSmallestDueTheBoundAdmits) {
  // A ready and a loading instance (2 s left), each with 0 to 3 queued, at
  // two clocks, two SLOs and deadlines from 3 s overdue to 4 s ahead: the
  // bound admits exactly the dues at or above AdmitsFrom, which is the
  // estimate less max(slo, 2 x service latency).
  auto ready = Make(OneStagePlan());
  auto loading =
      Make(*core::MonolithicPlanOnSlice(dag_, cluster_, SliceId(2)),
           Seconds(2));
  ASSERT_EQ(loading->state(), InstanceState::kLoading);
  for (int k = 0; k < 4; ++k) {
    for (Instance* inst : {ready.get(), loading.get()}) {
      for (const SimTime now : {SimTime{0}, Millis(700)}) {
        for (const SimDuration slo : {Millis(150), Millis(900)}) {
          const SimDuration allowance =
              std::max(slo, 2 * inst->ServiceLatency());
          const SimTime from = inst->AdmitsFrom(now, slo);
          EXPECT_EQ(from, inst->EstimateCompletion(now) - allowance);
          for (SimTime d = now - Seconds(3); d <= now + Seconds(4);
               d += Millis(25)) {
            EXPECT_EQ(inst->AdmitWithinBound(now, d, slo),
                      inst->EstimateCompletion(now) <=
                          std::max(d, now) + allowance)
                << k << " " << now << " " << slo << " " << d;
          }
          if (from > now) {
            EXPECT_TRUE(inst->AdmitWithinBound(now, from, slo));
            EXPECT_FALSE(inst->AdmitWithinBound(now, from - 1, slo));
          } else {
            EXPECT_TRUE(inst->AdmitWithinBound(now, now - Seconds(1), slo));
          }
        }
      }
      inst->Enqueue(NewRequest(), 1.0);
    }
  }
  sim_.Run();
}

TEST_F(InstanceTest, DrainStopsAdmissionButFinishesWork) {
  auto inst = Make(OneStagePlan());
  const RequestId r1 = NewRequest();
  inst->Enqueue(r1, 1.0);
  inst->BeginDrain();
  EXPECT_EQ(inst->state(), InstanceState::kDraining);
  EXPECT_FALSE(inst->CanAdmit());
  sim_.Run();
  EXPECT_EQ(completions_.size(), 1u);
  EXPECT_TRUE(inst->Idle());
  inst->MarkRetired();
  EXPECT_EQ(inst->state(), InstanceState::kRetired);
}

TEST_F(InstanceTest, DrainWhileLoadingStillServesAdmitted) {
  auto inst = Make(OneStagePlan(), /*load=*/Millis(300));
  const RequestId r1 = NewRequest();
  inst->Enqueue(r1, 1.0);
  inst->BeginDrain();
  sim_.Run();
  EXPECT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].second, Millis(500));
}

TEST_F(InstanceTest, RetireWithWorkThrows) {
  auto inst = Make(OneStagePlan());
  inst->Enqueue(NewRequest(), 1.0);
  EXPECT_THROW(inst->MarkRetired(), FfsError);
  sim_.Run();
}

TEST_F(InstanceTest, EnqueueOnRetiredThrows) {
  auto inst = Make(OneStagePlan());
  inst->BeginDrain();
  inst->MarkRetired();
  EXPECT_THROW(inst->Enqueue(NewRequest(), 1.0), FfsError);
}

TEST_F(InstanceTest, ActiveTotalIntegratesBusyPeriods) {
  auto inst = Make(OneStagePlan());
  const RequestId r1 = NewRequest();
  inst->Enqueue(r1, 1.0);
  sim_.Run();  // busy [0, 200 ms]
  EXPECT_EQ(inst->ActiveTotal(sim_.Now()), Millis(200));
  // Idle gap then another request.
  sim_.At(Millis(500), [&] { inst->Enqueue(NewRequest(), 1.0); });
  sim_.Run();
  EXPECT_EQ(inst->ActiveTotal(sim_.Now()), Millis(400));
  EXPECT_EQ(inst->last_used(), Millis(700));
}

TEST_F(InstanceTest, BusyAccountingReachesRecorder) {
  auto inst = Make(TwoStagePlan(/*hop=*/0));
  inst->Enqueue(NewRequest(), 1.0);
  sim_.Run();
  recorder_.Close(sim_.Now());
  // Each stage busy 100 ms on its own slice.
  EXPECT_EQ(recorder_.MigTime(), Millis(200));
}

// The planner's first-ranked two-stage plan for a zoo app on an empty
// 8-GPU node, as FluidFaaS's placement would build it.
core::PipelinePlan PlannedTwoStagePipeline(const model::AppDag& dag) {
  const auto cluster = gpu::Cluster::Uniform(1, 8, gpu::DefaultPartition());
  for (const auto& cand : core::EnumerateRankedPipelines(dag, 4)) {
    if (cand.num_stages() != 2) continue;
    auto plan = core::PlanFirstFeasible(dag, {cand}, cluster, NodeId(0));
    if (plan) return *plan;
  }
  throw FfsError("no two-stage plan");
}

// Under saturating load a pipelined instance completes one request per
// pass of its slowest stage. A stage is free again once its exec ends: its
// hop_out runs as an in-flight transfer, overlapped with the next pass. So
// the cycle is the largest exec_time, not PipelinePlan::BottleneckTime(),
// which adds each stage's hop_out. The two agree only when no stage's
// exec_time + hop_out exceeds the largest exec_time; otherwise
// CapacityRps() understates what the instance delivers.
TEST(InstanceSaturationTest, SaturatedPipelineCyclesAtItsSlowestStage) {
  struct Case {
    int app;
    model::Variant variant;
    bool bottleneck_is_cycle;  // BottleneckTime() == largest exec_time
  };
  const Case cases[] = {
      // [180 ms + 11 ms hop] [260 ms]: the slowest stage is the last one.
      {2, model::Variant::kSmall, true},
      // [180 ms + 11 ms hop] [123 ms]: the slowest stage has the hop.
      {0, model::Variant::kSmall, false},
      // [336.000 ms + 11.536 ms hop] [347.520 ms]: the slowest stage is the
      // last one, but the first stage's exec plus hop is longer still.
      {1, model::Variant::kMedium, false},
  };
  constexpr int kRequests = 20;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "app " << c.app << " "
                                    << model::Name(c.variant));
    const auto dag = model::BuildApp(c.app, c.variant);
    const core::PipelinePlan plan = PlannedTwoStagePipeline(dag);
    ASSERT_EQ(plan.num_stages(), 2);
    SimDuration cycle = 0;
    for (const core::StageBinding& s : plan.stages) {
      cycle = std::max(cycle, s.exec_time);
    }

    sim::Simulator sim;
    std::vector<SimTime> done;
    Instance inst(InstanceId(1), FunctionId(0), plan, sim,
                  [&](RequestId) { done.push_back(sim.Now()); });
    inst.Launch(0);
    for (int i = 0; i < kRequests; ++i) inst.Enqueue(RequestId(i), 1.0);
    sim.Run();

    ASSERT_EQ(done.size(), static_cast<std::size_t>(kRequests));
    EXPECT_EQ(done.front(), plan.EndToEndLatency());
    for (std::size_t i = 1; i < done.size(); ++i) {
      EXPECT_EQ(done[i] - done[i - 1], cycle) << "completion " << i;
    }
    EXPECT_EQ(plan.BottleneckTime() == cycle, c.bottleneck_is_cycle);
    EXPECT_GE(plan.BottleneckTime(), cycle);
    EXPECT_NEAR(inst.CapacityRps(), 1.0 / ToSeconds(plan.BottleneckTime()),
                1e-9);
  }
}

}  // namespace
}  // namespace fluidfaas::platform
