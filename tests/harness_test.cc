#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "harness/run_context.h"
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

auto Fields(const metrics::RequestRecord& r) {
  return std::tuple(r.id, r.fn, r.arrival, r.deadline, r.completion,
                    r.queue_time, r.load_time, r.exec_time, r.transfer_time,
                    r.retries, r.timed_out, r.aborted, r.rejected,
                    r.reject_cause);
}

TEST(HarnessTest, CallerInputsEqualToTheDefaultsRunTheSameRequests) {
  const ExperimentConfig cfg = SmallConfig(SystemKind::kFluidFaas,
                                           trace::WorkloadTier::kMedium);
  RunContext reference(cfg);
  const trace::Workload tier = reference.workload();
  const ExperimentResult want = reference.Run();

  ExperimentConfig replay = cfg;
  replay.custom_trace = tier.trace;
  const ExperimentResult got =
      RunContext(replay, tier.functions, MakeBundle(cfg.system)).Run();

  const auto& a = want.recorder->records();
  const auto& b = got.recorder->records();
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Fields(a[i]), Fields(b[i])) << "request " << i;
  }
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.function_names, want.function_names);
  EXPECT_DOUBLE_EQ(got.throughput_rps, want.throughput_rps);
}

TEST(HarnessTest, ResultNamesOnlyTheDefaultsItRan) {
  const ExperimentConfig cfg = SmallConfig(SystemKind::kEsg,
                                           trace::WorkloadTier::kLight);
  const ExperimentResult stock = RunContext(cfg).Run();
  EXPECT_EQ(stock.system, "ESG");
  EXPECT_GT(stock.ideal_rps, 0.0);

  // A caller's bundle is not config.system's scheduler, whatever it is.
  const ExperimentResult bundled =
      RunContext(cfg, {}, MakeBundle(SystemKind::kFluidFaas)).Run();
  EXPECT_EQ(bundled.system, kCustomSystem);
  EXPECT_NE(bundled.system, Name(cfg.system));
  // The tier's mix still defines the work-conserving bound.
  EXPECT_DOUBLE_EQ(bundled.ideal_rps, stock.ideal_rps);

  // A caller's function set has no tier mix to bound: ideal_rps is 0.
  ExperimentConfig replay = cfg;
  replay.custom_trace = RunContext(cfg).workload().trace;
  const ExperimentResult custom_fns =
      RunContext(replay, RunContext(cfg).workload().functions, std::nullopt)
          .Run();
  EXPECT_EQ(custom_fns.system, "ESG");
  EXPECT_EQ(custom_fns.ideal_rps, 0.0);
  EXPECT_GT(custom_fns.offered_rps, 0.0);
  EXPECT_EQ(custom_fns.recorder->total_requests(),
            stock.recorder->total_requests());
}

TEST(HarnessTest, CallerFunctionsNeedACustomTrace) {
  const ExperimentConfig cfg = SmallConfig(SystemKind::kFluidFaas,
                                           trace::WorkloadTier::kLight);
  std::vector<platform::FunctionSpec> fns =
      RunContext(cfg).workload().functions;
  EXPECT_THROW(RunContext(cfg, fns, std::nullopt), FfsError);
}

TEST(HarnessTest, CustomTraceMustNameACallerFunction) {
  ExperimentConfig cfg = SmallConfig(SystemKind::kFluidFaas,
                                     trace::WorkloadTier::kLight);
  // The light tier has more than one function; keep only the first.
  std::vector<platform::FunctionSpec> fns =
      RunContext(cfg).workload().functions;
  ASSERT_GT(fns.size(), 1u);
  fns.resize(1);
  cfg.custom_trace = {{Seconds(1), FunctionId(0)},
                      {Seconds(2), FunctionId(1)}};
  EXPECT_THROW(RunContext(cfg, fns, std::nullopt), FfsError);
  cfg.custom_trace.pop_back();
  EXPECT_NO_THROW(RunContext(cfg, fns, std::nullopt));
}

TEST(HarnessTest, NamesAreStable) {
  EXPECT_STREQ(Name(SystemKind::kFluidFaas), "FluidFaaS");
  EXPECT_STREQ(Name(SystemKind::kEsg), "ESG");
  EXPECT_STREQ(Name(SystemKind::kInfless), "INFless");
  EXPECT_STREQ(Name(SystemKind::kRepartition), "Repartition");
  EXPECT_STREQ(Name(SystemKind::kFluidFaasDistributed), "FluidFaaS-dist");
}

}  // namespace
}  // namespace fluidfaas::harness
