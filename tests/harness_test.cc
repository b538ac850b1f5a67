#include "harness/experiment.h"

#include <gtest/gtest.h>

#include "harness/sweep.h"

namespace fluidfaas::harness {
namespace {

ExperimentConfig SmallConfig(SystemKind kind, trace::WorkloadTier tier) {
  ExperimentConfig cfg;
  cfg.system = kind;
  cfg.tier = tier;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  cfg.duration = Seconds(30);
  cfg.load_factor = 0.2;  // gentle: everything completes quickly
  cfg.seed = 11;
  return cfg;
}

class AllSystemsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AllSystemsTest, CompletesEveryRequest) {
  auto res = RunExperiment(SmallConfig(GetParam(),
                                       trace::WorkloadTier::kLight));
  ASSERT_NE(res.recorder, nullptr);
  EXPECT_GT(res.recorder->total_requests(), 0u);
  EXPECT_EQ(res.recorder->completed_requests(),
            res.recorder->total_requests());
  EXPECT_GT(res.throughput_rps, 0.0);
  EXPECT_GT(res.recorder->SloHitRate(), 0.5);
  EXPECT_GT(res.recorder->MigTime(), 0);
  EXPECT_GE(res.recorder->GpuTime(), 0);
  EXPECT_EQ(res.recorder->total_gpcs(), 14);
}

INSTANTIATE_TEST_SUITE_P(Systems, AllSystemsTest,
                         ::testing::Values(SystemKind::kFluidFaas,
                                           SystemKind::kEsg,
                                           SystemKind::kInfless));

TEST(HarnessTest, DeterministicAcrossRuns) {
  const auto cfg = SmallConfig(SystemKind::kFluidFaas,
                               trace::WorkloadTier::kMedium);
  auto a = RunExperiment(cfg);
  auto b = RunExperiment(cfg);
  EXPECT_EQ(a.recorder->total_requests(), b.recorder->total_requests());
  EXPECT_EQ(a.recorder->completed_requests(),
            b.recorder->completed_requests());
  EXPECT_DOUBLE_EQ(a.recorder->SloHitRate(), b.recorder->SloHitRate());
  EXPECT_EQ(a.recorder->MigTime(), b.recorder->MigTime());
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(HarnessTest, SameTraceAcrossSystems) {
  ExperimentConfig cfg = SmallConfig(SystemKind::kFluidFaas,
                                     trace::WorkloadTier::kLight);
  SweepSpec spec;
  spec.base = cfg;
  spec.systems = kComparisonSystems;
  const SweepOutcome out = RunSweep(spec);
  ASSERT_EQ(out.cells.size(), 3u);
  EXPECT_EQ(out.cells[0].result.system, "INFless");
  EXPECT_EQ(out.cells[1].result.system, "ESG");
  EXPECT_EQ(out.cells[2].result.system, "FluidFaaS");
  // Identical arrivals for every system.
  EXPECT_EQ(out.cells[0].result.recorder->total_requests(),
            out.cells[1].result.recorder->total_requests());
  EXPECT_EQ(out.cells[1].result.recorder->total_requests(),
            out.cells[2].result.recorder->total_requests());
  EXPECT_DOUBLE_EQ(out.cells[0].result.offered_rps,
                   out.cells[2].result.offered_rps);
}

TEST(HarnessTest, CustomPartitionsAreUsed) {
  ExperimentConfig cfg = SmallConfig(SystemKind::kFluidFaas,
                                     trace::WorkloadTier::kLight);
  cfg.partitions = {
      {gpu::MigPartition::Parse("7g.80gb"),
       gpu::MigPartition::Parse("7g.80gb")}};
  auto res = RunExperiment(cfg);
  EXPECT_EQ(res.recorder->total_gpcs(), 14);
  EXPECT_EQ(res.recorder->completed_requests(),
            res.recorder->total_requests());
}

TEST(HarnessTest, RecorderCountsFluidSchedulerBehaviour) {
  ExperimentConfig cfg = SmallConfig(SystemKind::kFluidFaas,
                                     trace::WorkloadTier::kLight);
  cfg.duration = Seconds(60);
  cfg.load_factor = 0.5;
  auto res = RunExperiment(cfg);
  using sim::TransitionKind;
  auto moves = [](const metrics::Recorder& rec) {
    return rec.transitions(TransitionKind::kPromotion) +
           rec.transitions(TransitionKind::kDemotion) +
           rec.transitions(TransitionKind::kEviction);
  };
  // The light run at least promotes something.
  EXPECT_GT(moves(*res.recorder) + res.recorder->pipelines_committed(), 0u);
  // Baselines make no Fig. 8 moves.
  cfg.system = SystemKind::kEsg;
  auto esg = RunExperiment(cfg);
  EXPECT_EQ(esg.recorder->transitions(TransitionKind::kPromotion), 0u);
  EXPECT_EQ(esg.recorder->transitions(TransitionKind::kEviction), 0u);
}

TEST(HarnessTest, NamesAreStable) {
  EXPECT_STREQ(Name(SystemKind::kFluidFaas), "FluidFaaS");
  EXPECT_STREQ(Name(SystemKind::kEsg), "ESG");
  EXPECT_STREQ(Name(SystemKind::kInfless), "INFless");
}

}  // namespace
}  // namespace fluidfaas::harness
