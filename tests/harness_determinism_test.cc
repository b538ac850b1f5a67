// Attaching observers must never change the simulation: the same seed with
// and without the Chrome-trace exporter yields bit-identical metrics.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "harness/sweep.h"

namespace fluidfaas::harness {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.system = SystemKind::kFluidFaas;
  cfg.tier = trace::WorkloadTier::kLight;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 4;
  cfg.duration = Seconds(60);
  cfg.seed = 4242;
  return cfg;
}

TEST(HarnessDeterminismTest, TraceExporterDoesNotPerturbTheRun) {
  ExperimentConfig plain = SmallConfig();
  ExperimentConfig traced = SmallConfig();
  const std::string path = ::testing::TempDir() + "ffs_determinism_trace.json";
  traced.trace_out = path;

  const ExperimentResult a = RunExperiment(plain);
  const ExperimentResult b = RunExperiment(traced);

  // Bit-identical headline metrics...
  EXPECT_EQ(a.recorder->SloHitRate(), b.recorder->SloHitRate());
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.recorder->total_requests(), b.recorder->total_requests());
  EXPECT_EQ(a.recorder->completed_requests(),
            b.recorder->completed_requests());
  EXPECT_EQ(a.recorder->MigTime(), b.recorder->MigTime());
  EXPECT_EQ(a.recorder->GpuTime(), b.recorder->GpuTime());
  // ...down to every per-request latency.
  EXPECT_EQ(a.recorder->LatenciesSeconds(), b.recorder->LatenciesSeconds());
  EXPECT_EQ(a.recorder->transitions(sim::TransitionKind::kEviction),
            b.recorder->transitions(sim::TransitionKind::kEviction));
  EXPECT_EQ(a.recorder->pipelines_committed(),
            b.recorder->pipelines_committed());

  // And the trace file is a non-empty Chrome-trace JSON.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string trace = ss.str();
  EXPECT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\""), std::string::npos);
}

TEST(HarnessDeterminismTest, SameSeedSameResultAcrossSystems) {
  for (SystemKind kind :
       {SystemKind::kEsg, SystemKind::kInfless, SystemKind::kRepartition,
        SystemKind::kFluidFaasDistributed}) {
    ExperimentConfig cfg = SmallConfig();
    cfg.system = kind;
    cfg.duration = Seconds(30);
    const ExperimentResult a = RunExperiment(cfg);
    const ExperimentResult b = RunExperiment(cfg);
    EXPECT_EQ(a.recorder->SloHitRate(), b.recorder->SloHitRate()) << Name(kind);
    EXPECT_EQ(a.recorder->LatenciesSeconds(),
              b.recorder->LatenciesSeconds())
        << Name(kind);
  }
}

// --- fault injection --------------------------------------------------------

TEST(HarnessDeterminismTest, FaultRateZeroIsCompletelyInert) {
  // Every other fault knob must be ignored at rate 0: the injector is never
  // constructed and no timeout timers are armed, so the run is the same
  // event-for-event as one that never heard of fault injection.
  ExperimentConfig plain = SmallConfig();
  ExperimentConfig zeroed = SmallConfig();
  zeroed.faults.rate = 0.0;
  zeroed.faults.seed = 999;
  zeroed.faults.mttr = Seconds(1);

  const ExperimentResult a = RunExperiment(plain);
  const ExperimentResult b = RunExperiment(zeroed);
  EXPECT_EQ(a.recorder->SloHitRate(), b.recorder->SloHitRate());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.recorder->LatenciesSeconds(), b.recorder->LatenciesSeconds());
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_EQ(b.recorder->timeouts(), 0u);
  EXPECT_EQ(b.recorder->retries_total(), 0u);
  EXPECT_EQ(b.recorder->instances_failed(), 0u);
  // Without timeouts/abandonment, goodput degenerates to SLO-hit throughput
  // and every request finishes by completing.
  EXPECT_EQ(b.recorder->finished_requests(),
            b.recorder->completed_requests());
}

ExperimentConfig FaultyConfig(std::uint64_t fault_seed) {
  ExperimentConfig cfg = SmallConfig();
  cfg.duration = Seconds(30);
  cfg.faults.rate = 0.2;  // ~6 faults over the run
  cfg.faults.seed = fault_seed;
  cfg.faults.mttr = Seconds(10);
  cfg.faults.timeout_scale = 3.0;
  return cfg;
}

TEST(HarnessDeterminismTest, SameFaultSeedReplaysTheSameDisruption) {
  const ExperimentConfig cfg = FaultyConfig(77);
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  const metrics::Recorder& ra = *a.recorder;
  const metrics::Recorder& rb = *b.recorder;
  EXPECT_EQ(ra.SloHitRate(), rb.SloHitRate());
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_EQ(ra.timeouts(), rb.timeouts());
  EXPECT_EQ(ra.retries_total(), rb.retries_total());
  EXPECT_EQ(ra.abandoned_requests(), rb.abandoned_requests());
  EXPECT_EQ(ra.RecoveredRequests(), rb.RecoveredRequests());
  EXPECT_EQ(ra.instances_failed(), rb.instances_failed());
  EXPECT_EQ(ra.slices_failed(), rb.slices_failed());
  EXPECT_EQ(ra.LatenciesSeconds(), rb.LatenciesSeconds());
}

TEST(HarnessDeterminismTest, DifferentFaultSeedsDisagree) {
  const ExperimentResult a = RunExperiment(FaultyConfig(77));
  const ExperimentResult c = RunExperiment(FaultyConfig(78));
  const metrics::Recorder& ra = *a.recorder;
  const metrics::Recorder& rc = *c.recorder;
  const bool identical =
      ra.LatenciesSeconds() == rc.LatenciesSeconds() &&
      ra.timeouts() == rc.timeouts() &&
      ra.retries_total() == rc.retries_total() &&
      ra.instances_failed() == rc.instances_failed() &&
      ra.slices_failed() == rc.slices_failed();
  EXPECT_FALSE(identical);
}

// --- parallel sweeps --------------------------------------------------------

SweepSpec SmallSweep() {
  SweepSpec spec;
  spec.base = SmallConfig();
  spec.base.duration = Seconds(30);
  spec.systems = {SystemKind::kInfless, SystemKind::kEsg,
                  SystemKind::kFluidFaas};
  spec.seeds = {1, 2};
  return spec;
}

std::string SweepJson(const SweepOutcome& outcome) {
  std::ostringstream os;
  WriteSweepJson(outcome, os, /*include_timing=*/false);
  return os.str();
}

// The acceptance guarantee of the sweep engine: the deterministic payload of
// BENCH_sweep.json is byte-identical no matter how many workers ran the
// grid, because results land by grid index, never by completion order.
TEST(HarnessDeterminismTest, SweepJsonIsByteIdenticalAcrossJobCounts) {
  const SweepOutcome serial = RunSweep(SmallSweep(), 1);
  const std::string reference = SweepJson(serial);
  ASSERT_FALSE(reference.empty());
  EXPECT_NE(reference.find("\"fluidfaas.sweep.v1\""), std::string::npos);

  for (int jobs : {4, 8}) {
    const SweepOutcome parallel = RunSweep(SmallSweep(), jobs);
    EXPECT_EQ(SweepJson(parallel), reference) << "jobs=" << jobs;

    // Beyond the serialized document: the full recorder state of every cell
    // matches the serial run, down to each per-request latency.
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      const SweepCell& a = serial.cells[i];
      const SweepCell& b = parallel.cells[i];
      EXPECT_EQ(a.point.index, b.point.index);
      EXPECT_EQ(a.point.system, b.point.system);
      EXPECT_EQ(a.point.seed, b.point.seed);
      EXPECT_EQ(a.result.recorder->SloHitRate(),
                b.result.recorder->SloHitRate())
          << i;
      EXPECT_EQ(a.result.throughput_rps, b.result.throughput_rps) << i;
      EXPECT_EQ(a.result.makespan, b.result.makespan) << i;
      EXPECT_EQ(a.result.recorder->LatenciesSeconds(),
                b.result.recorder->LatenciesSeconds())
          << i;
    }
  }
}

// The timing block is the only nondeterministic part of the document, and
// only present when asked for.
TEST(HarnessDeterminismTest, SweepTimingBlockIsOptIn) {
  SweepSpec spec;
  spec.base = SmallConfig();
  spec.base.duration = Seconds(10);
  const SweepOutcome o = RunSweep(spec, 1);

  std::ostringstream with_timing;
  WriteSweepJson(o, with_timing, /*include_timing=*/true);
  EXPECT_NE(with_timing.str().find("\"timing\""), std::string::npos);
  EXPECT_NE(with_timing.str().find("\"speedup\""), std::string::npos);
  EXPECT_EQ(SweepJson(o).find("\"timing\""), std::string::npos);
}

TEST(HarnessDeterminismTest, FaultyRunsStillDrainAndAccountEveryRequest) {
  const ExperimentResult r = RunExperiment(FaultyConfig(5));
  // Injection happened and the availability story is consistent: every
  // submitted request reached a terminal state, and goodput can only lose
  // against raw throughput.
  EXPECT_GT(r.recorder->instances_failed() + r.recorder->slices_failed() +
                r.recorder->timeouts(),
            0u);
  EXPECT_EQ(r.recorder->finished_requests(), r.recorder->total_requests());
  EXPECT_LE(r.goodput_rps, r.throughput_rps);
}

}  // namespace
}  // namespace fluidfaas::harness
