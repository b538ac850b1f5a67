#include "runtime/plan_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>

#include "core/partitioner.h"
#include "gpu/cluster.h"
#include "model/zoo.h"

namespace fluidfaas::runtime {
namespace {

core::PipelinePlan PlanFor(const model::AppDag& dag, int stages_wanted) {
  auto cluster = gpu::Cluster::Uniform(1, 8, gpu::DefaultPartition());
  auto ranked = core::EnumerateRankedPipelines(dag, 4);
  for (const auto& cand : ranked) {
    if (cand.num_stages() != stages_wanted) continue;
    auto plan = core::TryPlanOnNode(dag, cand, cluster, NodeId(0),
                                    model::TransferCostModel{});
    if (plan) return *plan;
  }
  throw FfsError("no plan with requested stage count");
}

TEST(CalibratedStageTest, ProducesRequestedOutputSize) {
  auto fn = CalibratedStage(10.0, 0.01, 4096);
  std::vector<std::byte> in(1 << 16);
  EXPECT_EQ(fn(1, in).size(), 4096u);
}

TEST(CalibratedStageTest, LongerTargetsBurnMoreCpu) {
  // Compare wall time of a 1 ms-target and a 50 ms-target stage at the same
  // scale; the latter must be measurably slower.
  std::vector<std::byte> in(1 << 16);
  auto cheap = CalibratedStage(1.0, 0.2, 64);
  auto pricey = CalibratedStage(50.0, 0.2, 64);
  using Clock = std::chrono::steady_clock;
  auto time_of = [&](StageFn& fn) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 5; ++i) fn(static_cast<std::uint64_t>(i), in);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  EXPECT_GT(time_of(pricey), 2.0 * time_of(cheap));
}

TEST(PlanExecutorTest, ExecutesMonolithicPlan) {
  const auto dag = model::BuildApp(0, model::Variant::kSmall);
  auto plan = PlanFor(dag, 1);
  PlanExecutorOptions opt;
  opt.time_scale = 0.01;
  PlanExecutor exec(dag, plan, opt);
  EXPECT_EQ(exec.predicted_e2e(), plan.EndToEndLatency());
  const double secs = exec.MeasureSeconds(20);
  EXPECT_GT(secs, 0.0);
}

TEST(PlanExecutorTest, PipelineBeatsMonolithicOnTheSameSliceClass) {
  // Measured against measured, so calibration error cancels: the 2-stage
  // pipeline (both stages on 1g slices, overlapping) must finish a batch
  // faster than the monolithic single-1g execution of the same DAG.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "stage overlap needs >= 2 CPU cores";
  }
  const auto dag = model::BuildApp(0, model::Variant::kMedium);
  // Force the monolithic plan onto a 1g-equivalent by building a plan whose
  // single stage runs at 1 GPC: craft it directly.
  core::PipelinePlan mono;
  mono.node = NodeId(0);
  core::StageBinding b;
  b.plan = *core::MakeStagePlan(dag, 0, dag.size());
  b.slice = SliceId(0);
  b.profile = gpu::MigProfile::k1g10gb;
  b.exec_time = core::StageLatencyOnGpcs(dag, 0, dag.size(), 1);
  mono.stages.push_back(b);

  auto pipe = PlanFor(dag, 2);
  // Both stages of the ranked 2-stage candidate sit on 1g slices here.
  PlanExecutorOptions opt;
  opt.time_scale = 0.02;
  constexpr int kRequests = 24;
  // Best of three interleaved trials per side: a burst of load from outside
  // the test (or a cold first run) slows one trial, not the fastest of
  // three, so the comparison sees the two plans rather than the host.
  double mono_secs = std::numeric_limits<double>::infinity();
  double pipe_secs = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 3; ++trial) {
    PlanExecutor mono_exec(dag, mono, opt);
    mono_secs = std::min(mono_secs, mono_exec.MeasureSeconds(kRequests));
    PlanExecutor pipe_exec(dag, pipe, opt);
    pipe_secs = std::min(pipe_secs, pipe_exec.MeasureSeconds(kRequests));
  }
  EXPECT_LT(pipe_secs, mono_secs);
}

TEST(PlanExecutorTest, ThroughputTracksPredictedBottleneck) {
  // Measured request rate should be within a loose factor of the planner's
  // 1/bottleneck prediction (scheduling noise and calibration error allow
  // generous slack; the point is the right order of magnitude and
  // direction).
  const auto dag = model::BuildApp(2, model::Variant::kMedium);
  auto plan = PlanFor(dag, 2);
  PlanExecutorOptions opt;
  opt.time_scale = 0.02;
  PlanExecutor exec(dag, plan, opt);
  constexpr int kRequests = 30;
  const double secs = exec.MeasureSeconds(kRequests);
  const double measured_rps = kRequests / secs;
  const double predicted_rps =
      1.0 / (ToSeconds(exec.predicted_bottleneck()) * opt.time_scale);
  EXPECT_GT(measured_rps, 0.3 * predicted_rps);
  EXPECT_LT(measured_rps, 3.0 * predicted_rps);
}

}  // namespace
}  // namespace fluidfaas::runtime
