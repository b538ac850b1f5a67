// Cross-module integration tests: the paper's headline claims as
// executable assertions, on scaled-down clusters so they run in seconds.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "harness/experiment.h"
#include "harness/sweep.h"

namespace fluidfaas::harness {
namespace {

ExperimentConfig Base(trace::WorkloadTier tier, double load_factor,
                      SimDuration duration = Seconds(120)) {
  ExperimentConfig cfg;
  cfg.tier = tier;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 4;
  cfg.duration = duration;
  cfg.load_factor = load_factor;
  cfg.seed = 2025;
  return cfg;
}

/// INFless, ESG and FluidFaaS on the same workload, in that order.
std::vector<ExperimentResult> Compare(const ExperimentConfig& base) {
  SweepSpec spec;
  spec.base = base;
  spec.systems = kComparisonSystems;
  std::vector<ExperimentResult> results;
  for (SweepCell& c : RunSweep(spec).cells) {
    results.push_back(std::move(c.result));
  }
  return results;
}

TEST(EndToEndTest, LightWorkloadAllSystemsComparable) {
  auto results = Compare(Base(trace::WorkloadTier::kLight, 0.25));
  const auto& inf = results[0];
  const auto& esg = results[1];
  const auto& fluid = results[2];
  // §7.1: similar SLO hit rates and throughput in light workloads.
  EXPECT_NEAR(fluid.throughput_rps, esg.throughput_rps,
              0.1 * esg.throughput_rps);
  EXPECT_NEAR(fluid.throughput_rps, inf.throughput_rps,
              0.1 * inf.throughput_rps);
  EXPECT_GT(fluid.recorder->SloHitRate(), 0.7);
  EXPECT_GT(esg.recorder->SloHitRate(), 0.7);
}

TEST(EndToEndTest, MediumWorkloadFluidWins) {
  auto results = Compare(Base(trace::WorkloadTier::kMedium, 0.55));
  const auto& esg = results[1];
  const auto& fluid = results[2];
  // §7.1-7.2: FluidFaaS sustains higher throughput and SLO compliance once
  // 1g slices become unusable for the monolithic baselines.
  EXPECT_GT(fluid.throughput_rps, esg.throughput_rps);
  EXPECT_GT(fluid.recorder->SloHitRate(), esg.recorder->SloHitRate());
  EXPECT_GT(fluid.recorder->pipelines_committed(), 0u);
}

TEST(EndToEndTest, HeavyWorkloadFluidWinsBig) {
  auto results = Compare(Base(trace::WorkloadTier::kHeavy, 0.55));
  const auto& esg = results[1];
  const auto& fluid = results[2];
  EXPECT_GT(fluid.throughput_rps, 1.1 * esg.throughput_rps);
  EXPECT_GT(fluid.recorder->SloHitRate(), esg.recorder->SloHitRate());
}

TEST(EndToEndTest, BaselinesLeaveSmallSlicesIdleInHeavy) {
  // §7.2: "ESG can only use the 4g.40gb slices" in heavy workloads.
  ExperimentConfig cfg = Base(trace::WorkloadTier::kHeavy, 0.5);
  cfg.system = SystemKind::kEsg;
  auto esg = RunExperiment(cfg);
  for (const auto& s : esg.recorder->PerSliceTotals()) {
    if (s.gpcs <= 2) {
      EXPECT_EQ(s.busy, 0) << "small slice busy under monolithic ESG";
    }
  }
  cfg.system = SystemKind::kFluidFaas;
  auto fluid = RunExperiment(cfg);
  SimDuration small_busy = 0;
  for (const auto& s : fluid.recorder->PerSliceTotals()) {
    if (s.gpcs == 2) small_busy += s.busy;
  }
  EXPECT_GT(small_busy, 0) << "FluidFaaS should pipeline onto 2g slices";
}

TEST(EndToEndTest, FluidUsesOneGSlicesInMedium) {
  // §7.2: medium workloads leave 1g idle for ESG; FluidFaaS uses them.
  ExperimentConfig cfg = Base(trace::WorkloadTier::kMedium, 0.55);
  cfg.system = SystemKind::kEsg;
  auto esg = RunExperiment(cfg);
  for (const auto& s : esg.recorder->PerSliceTotals()) {
    if (s.gpcs == 1) {
      EXPECT_EQ(s.busy, 0);
    }
  }
  cfg.system = SystemKind::kFluidFaas;
  auto fluid = RunExperiment(cfg);
  SimDuration oneg_busy = 0;
  for (const auto& s : fluid.recorder->PerSliceTotals()) {
    if (s.gpcs == 1) oneg_busy += s.busy;
  }
  EXPECT_GT(oneg_busy, 0);
}

TEST(EndToEndTest, AblationPipelinesOffHurtsHeavyThroughput) {
  ExperimentConfig cfg = Base(trace::WorkloadTier::kHeavy, 0.55);
  cfg.system = SystemKind::kFluidFaas;
  auto with = RunExperiment(cfg);
  cfg.platform.enable_pipelines = false;
  auto without = RunExperiment(cfg);
  EXPECT_GT(with.throughput_rps, without.throughput_rps);
  EXPECT_EQ(without.recorder->pipelines_committed(), 0u);
}

TEST(EndToEndTest, AblationTimeSharingEnablesScarceSliceSharing) {
  // On a slice-starved cluster, eviction-based time sharing lets the four
  // light functions rotate through three slices within seconds; without it
  // the overflow function waits out another's exclusive keep-alive.
  ExperimentConfig cfg = Base(trace::WorkloadTier::kLight, 0.0, Seconds(90));
  cfg.gpus_per_node = 1;      // one GPU: three slices, four functions
  cfg.load_factor = 0.02;     // sparse traffic — hotness stays low
  cfg.system = SystemKind::kFluidFaas;
  auto with = RunExperiment(cfg);
  cfg.platform.enable_time_sharing = false;
  auto without = RunExperiment(cfg);
  EXPECT_GT(with.recorder->transitions(sim::TransitionKind::kEviction), 0u);
  EXPECT_EQ(without.recorder->transitions(sim::TransitionKind::kEviction), 0u);
  // With time sharing, a request for a non-resident function waits only an
  // eviction + warm reload (seconds); without it, the overflow function is
  // stuck behind another's exclusive keep-alive and its requests complete
  // only in the post-trace drain — a tail one order of magnitude worse.
  auto p100 = [](const ExperimentResult& r) {
    return Percentile(r.recorder->LatenciesSeconds(), 1.0);
  };
  EXPECT_LT(p100(with), 30.0);
  EXPECT_GT(p100(without), 60.0);
}

TEST(EndToEndTest, SloScaleSensitivity) {
  // At moderate load, looser SLOs raise hit rates on the same trace.
  ExperimentConfig cfg = Base(trace::WorkloadTier::kMedium, 0.35);
  cfg.system = SystemKind::kFluidFaas;
  cfg.platform.slo_scale = 1.5;
  auto tight = RunExperiment(cfg);
  cfg.platform.slo_scale = 4.0;
  auto loose = RunExperiment(cfg);
  EXPECT_GE(loose.recorder->SloHitRate(),
            tight.recorder->SloHitRate() - 0.02);
}

TEST(EndToEndTest, PartitionSensitivityFluidBeatsEsgOnAllSchemes) {
  // §7.4 / Fig. 15 on a quarter-size cluster: FluidFaaS wins on P1, P2 and
  // the hybrid partitioning.
  std::vector<std::vector<std::vector<gpu::MigPartition>>> schemes = {
      {gpu::PartitionSchemeP1(4)},
      {gpu::PartitionSchemeP2(4)},
  };
  for (auto& scheme : schemes) {
    ExperimentConfig cfg = Base(trace::WorkloadTier::kHeavy, 0.55);
    cfg.partitions = scheme;
    auto results = Compare(cfg);
    EXPECT_GE(results[2].throughput_rps, results[1].throughput_rps)
        << "scheme with " << results[2].recorder->total_gpcs() << " gpcs";
  }
}

}  // namespace
}  // namespace fluidfaas::harness
