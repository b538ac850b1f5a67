// QoS determinism (DESIGN.md §9): runs under the fair and edf disciplines
// (and shed admission) are byte-identical across parallel sweep job counts,
// exactly like the fifo default — disciplines break every tie by arrival
// sequence, never by pointer or hash order.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "harness/sweep.h"

namespace fluidfaas::harness {
namespace {

SweepSpec QosSweep(const std::string& queue, const std::string& admission) {
  SweepSpec spec;
  spec.base.system = SystemKind::kFluidFaas;
  spec.base.tier = trace::WorkloadTier::kLight;
  spec.base.num_nodes = 1;
  spec.base.gpus_per_node = 4;
  spec.base.duration = Seconds(30);
  spec.base.seed = 4242;
  // Push past the tier default so queues actually back up and the
  // discipline's ordering decisions matter.
  spec.base.load_factor = 0.6;
  spec.base.platform.qos.queue = queue;
  spec.base.platform.qos.admission = admission;
  spec.systems = {SystemKind::kInfless, SystemKind::kFluidFaas};
  spec.seeds = {1, 2};
  return spec;
}

std::string SweepJson(const SweepOutcome& outcome) {
  std::ostringstream os;
  WriteSweepJson(outcome, os, /*include_timing=*/false);
  return os.str();
}

TEST(QosDeterminismTest, FairQueueSweepIsByteIdenticalAcrossJobCounts) {
  const SweepOutcome serial = RunSweep(QosSweep("fair", "none"), 1);
  const std::string reference = SweepJson(serial);
  ASSERT_FALSE(reference.empty());
  for (int jobs : {4, 8}) {
    const SweepOutcome parallel = RunSweep(QosSweep("fair", "none"), jobs);
    EXPECT_EQ(SweepJson(parallel), reference) << "jobs=" << jobs;
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
      // Dequeue decisions surface as per-request latencies; equality here
      // pins the discipline's order, not just aggregate counters.
      EXPECT_EQ(serial.cells[i].result.recorder->LatenciesSeconds(),
                parallel.cells[i].result.recorder->LatenciesSeconds())
          << "jobs=" << jobs << " cell=" << i;
    }
  }
}

TEST(QosDeterminismTest, EdfQueueSweepIsByteIdenticalAcrossJobCounts) {
  const SweepOutcome serial = RunSweep(QosSweep("edf", "none"), 1);
  const std::string reference = SweepJson(serial);
  ASSERT_FALSE(reference.empty());
  for (int jobs : {4, 8}) {
    const SweepOutcome parallel = RunSweep(QosSweep("edf", "none"), jobs);
    EXPECT_EQ(SweepJson(parallel), reference) << "jobs=" << jobs;
  }
}

TEST(QosDeterminismTest, ShedAdmissionSweepIsByteIdenticalAcrossJobCounts) {
  const SweepOutcome serial = RunSweep(QosSweep("fifo", "shed"), 1);
  const std::string reference = SweepJson(serial);
  ASSERT_FALSE(reference.empty());
  const SweepOutcome parallel = RunSweep(QosSweep("fifo", "shed"), 8);
  EXPECT_EQ(SweepJson(parallel), reference);
  // Rejection accounting is part of the deterministic payload.
  ASSERT_EQ(parallel.cells.size(), serial.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].result.recorder->rejected_requests(),
              parallel.cells[i].result.recorder->rejected_requests())
        << i;
  }
}

TEST(QosDeterminismTest, RepeatedFairRunsAgreeEventForEvent) {
  ExperimentConfig cfg = QosSweep("fair", "none").base;
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  EXPECT_EQ(a.recorder->SloHitRate(), b.recorder->SloHitRate());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.recorder->JainFairnessIndex(), b.recorder->JainFairnessIndex());
  EXPECT_EQ(a.recorder->WorstFunctionP99(), b.recorder->WorstFunctionP99());
  EXPECT_EQ(a.recorder->MeanQueueDepth(), b.recorder->MeanQueueDepth());
  EXPECT_EQ(a.recorder->LatenciesSeconds(), b.recorder->LatenciesSeconds());
}

}  // namespace
}  // namespace fluidfaas::harness
