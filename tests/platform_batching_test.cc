// Batched-serving semantics: stage passes pull up to max_batch requests,
// the pass costs the marginal-batched time, and all members complete
// together.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/pipeline.h"
#include "gpu/cluster.h"
#include "harness/experiment.h"
#include "metrics/recorder.h"
#include "platform/instance.h"
#include "sim/simulator.h"

namespace fluidfaas::platform {
namespace {

model::ComponentSpec Comp(SimDuration t) {
  model::ComponentSpec c;
  c.id = ComponentId(0);
  c.name = "c";
  c.cls = model::ComponentClass::kClassification;
  c.weights = GiB(1);
  c.activations = GiB(1);
  c.latency_1gpc = t;
  c.serial_fraction = 0.0;
  c.output_bytes = MiB(10);
  return c;
}

class BatchingTest : public ::testing::Test {
 protected:
  BatchingTest()
      : cluster_(gpu::Cluster::Uniform(1, 1,
                                       gpu::MigPartition::Parse(
                                           "1g.10gb+1g.10gb"))),
        recorder_(cluster_),
        dag_("app", {Comp(Millis(100))}, {{-1, 0}}) {
    recorder_.SubscribeTo(sim_.bus());
  }

  std::unique_ptr<Instance> Make(int max_batch, double marginal) {
    auto plan = *core::MonolithicPlanOnSlice(dag_, cluster_, SliceId(0));
    cluster_.Bind(SliceId(0), InstanceId(1));
    sim_.bus().Publish(sim::SliceBound{SliceId(0), InstanceId(1), 0});
    auto inst = std::make_unique<Instance>(
        InstanceId(1), FunctionId(0), std::move(plan), sim_,
        [this](RequestId rid) { completions_.push_back({rid, sim_.Now()}); });
    inst->SetBatching(max_batch, marginal);
    inst->Launch(0);
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

TEST_F(BatchingTest, BatchOfTwoCompletesTogetherAtMarginalCost) {
  auto inst = Make(/*max_batch=*/4, /*marginal=*/0.5);
  const RequestId r1 = NewRequest();
  const RequestId r2 = NewRequest();
  inst->Enqueue(r1, 1.0);
  inst->Enqueue(r2, 1.0);
  sim_.Run();
  // One pass of 100 ms x (1 + 0.5) = 150 ms serves both.
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].second, Millis(150));
  EXPECT_EQ(completions_[1].second, Millis(150));
  // Exec attributed as each request's share of the pass.
  EXPECT_EQ(recorder_.record(r1).exec_time, Millis(75));
  EXPECT_EQ(recorder_.record(r2).exec_time, Millis(75));
}

TEST_F(BatchingTest, MaxBatchCapsThePass) {
  auto inst = Make(/*max_batch=*/2, /*marginal=*/0.0);
  for (int i = 0; i < 5; ++i) inst->Enqueue(NewRequest(), 1.0);
  sim_.Run();
  ASSERT_EQ(completions_.size(), 5u);
  // Free batching (marginal 0): passes of {2,2,1} x 100 ms.
  EXPECT_EQ(completions_[1].second, Millis(100));
  EXPECT_EQ(completions_[3].second, Millis(200));
  EXPECT_EQ(completions_[4].second, Millis(300));
}

TEST_F(BatchingTest, NoBatchingByDefaultMatchesSerial) {
  auto inst = Make(/*max_batch=*/1, /*marginal=*/0.5);
  inst->Enqueue(NewRequest(), 1.0);
  inst->Enqueue(NewRequest(), 1.0);
  sim_.Run();
  EXPECT_EQ(completions_[0].second, Millis(100));
  EXPECT_EQ(completions_[1].second, Millis(200));
}

TEST_F(BatchingTest, LateArrivalJoinsNextPassNotCurrent) {
  auto inst = Make(/*max_batch=*/4, /*marginal=*/0.0);
  inst->Enqueue(NewRequest(), 1.0);
  // Arrives while the first pass is in flight.
  sim_.At(Millis(50), [&] { inst->Enqueue(NewRequest(), 1.0); });
  sim_.Run();
  EXPECT_EQ(completions_[0].second, Millis(100));
  EXPECT_EQ(completions_[1].second, Millis(200));
}

TEST_F(BatchingTest, RejectsBadParameters) {
  auto inst = Make(1, 0.5);
  EXPECT_THROW(inst->SetBatching(0, 0.5), FfsError);
  EXPECT_THROW(inst->SetBatching(2, -0.1), FfsError);
  EXPECT_THROW(inst->SetBatching(2, 1.5), FfsError);
}

TEST(BatchingEndToEndTest, BatchingRaisesBaselineThroughputUnderOverload) {
  // INFless with batching sustains more of the medium overload than
  // without — the capability exists even though the paper's evaluation
  // runs everything unbatched.
  harness::ExperimentConfig cfg;
  cfg.system = harness::SystemKind::kInfless;
  cfg.tier = trace::WorkloadTier::kMedium;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 4;
  cfg.duration = Seconds(90);
  cfg.load_factor = 0.8;
  auto plain = harness::RunExperiment(cfg);
  cfg.platform.max_batch = 4;
  auto batched = harness::RunExperiment(cfg);
  EXPECT_GT(batched.throughput_rps, plain.throughput_rps);
}

}  // namespace
}  // namespace fluidfaas::platform
