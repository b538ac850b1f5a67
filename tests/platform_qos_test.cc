// The QoS subsystem wired through the platform (DESIGN.md §9): the default
// fifo/none policy is provably inert (event-for-event identical to a config
// that never mentions QoS), non-default disciplines install cleanly,
// admission rejections carry typed causes all the way into terminal
// accounting / the JSON report, and the rejections and pending depth are
// visible to observers.
#include <gtest/gtest.h>

#include "gpu/cluster.h"
#include "harness/experiment.h"
#include "harness/json_report.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/platform.h"
#include "sim/simulator.h"

namespace fluidfaas::harness {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.system = SystemKind::kFluidFaas;
  cfg.tier = trace::WorkloadTier::kLight;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 4;
  cfg.duration = Seconds(30);
  cfg.seed = 4242;
  return cfg;
}

// The acceptance pin of the whole refactor: a config that spells out
// "fifo"/"none" and one that never touches QoS run the same simulation,
// down to each per-request latency, for every scheduler.
TEST(PlatformQosTest, DefaultQueuePolicyIsInertForEverySystem) {
  for (SystemKind kind :
       {SystemKind::kFluidFaas, SystemKind::kInfless, SystemKind::kEsg,
        SystemKind::kRepartition, SystemKind::kFluidFaasDistributed}) {
    ExperimentConfig plain = SmallConfig();
    plain.system = kind;
    ExperimentConfig spelled = plain;
    spelled.platform.qos.queue = "fifo";
    spelled.platform.qos.admission = "none";

    const ExperimentResult a = RunExperiment(plain);
    const ExperimentResult b = RunExperiment(spelled);
    EXPECT_EQ(a.recorder->SloHitRate(), b.recorder->SloHitRate())
        << Name(kind);
    EXPECT_EQ(a.makespan, b.makespan) << Name(kind);
    EXPECT_EQ(a.recorder->LatenciesSeconds(),
              b.recorder->LatenciesSeconds())
        << Name(kind);
    EXPECT_EQ(a.recorder->rejected_requests(), 0u) << Name(kind);
    EXPECT_EQ(b.recorder->rejected_requests(), 0u) << Name(kind);
  }
}

TEST(PlatformQosTest, FairAndEdfInstallAndCompleteTheWorkload) {
  for (const char* queue : {"fair", "edf"}) {
    ExperimentConfig cfg = SmallConfig();
    cfg.platform.qos.queue = queue;
    const ExperimentResult r = RunExperiment(cfg);
    EXPECT_EQ(r.recorder->finished_requests(),
              r.recorder->total_requests())
        << queue;
    EXPECT_GT(r.recorder->completed_requests(), 0u) << queue;
    EXPECT_GT(r.recorder->JainFairnessIndex(), 0.0) << queue;
    EXPECT_LE(r.recorder->JainFairnessIndex(), 1.0) << queue;
  }
}

TEST(PlatformQosTest, UnknownQueueOrAdmissionNameThrows) {
  ExperimentConfig cfg = SmallConfig();
  cfg.duration = Seconds(1);
  cfg.platform.qos.queue = "lifo";
  EXPECT_THROW(RunExperiment(cfg), FfsError);
  cfg.platform.qos.queue = "fifo";
  cfg.platform.qos.admission = "lottery";
  EXPECT_THROW(RunExperiment(cfg), FfsError);
}

TEST(PlatformQosTest, RateLimitRejectsWithTypedCauseAndStillDrains) {
  ExperimentConfig cfg = SmallConfig();
  cfg.platform.qos.admission = "shed";
  cfg.platform.qos.rate_rps = 0.5;  // well under the offered load
  cfg.platform.qos.burst = 2.0;
  cfg.platform.qos.shed_infeasible = false;  // isolate the bucket
  const ExperimentResult r = RunExperiment(cfg);

  EXPECT_GT(r.recorder->rejected_requests(), 0u);
  EXPECT_EQ(r.recorder->rejected_requests(),
            r.recorder->rejected_by(sim::RejectCause::kRateLimited));
  // Rejected requests are terminal: the drain loop must not wait on them,
  // and accounting still covers every submission.
  EXPECT_EQ(r.recorder->finished_requests(), r.recorder->total_requests());
  // Rejections count into the aborted (terminal, never-completes) bucket.
  EXPECT_GE(r.recorder->aborted_requests(), r.recorder->rejected_requests());

  // Every rejection surfaces in the per-request records with its cause.
  std::size_t flagged = 0;
  for (const auto& rec : r.recorder->records()) {
    if (rec.rejected) {
      ++flagged;
      EXPECT_EQ(rec.reject_cause, sim::RejectCause::kRateLimited);
      EXPECT_FALSE(rec.done());
    }
  }
  EXPECT_EQ(flagged, r.recorder->rejected_requests());

  // And in the JSON report's qos object.
  const std::string json = ResultToJson(r);
  EXPECT_NE(json.find("\"qos\""), std::string::npos);
  EXPECT_NE(json.find("\"rate-limited\""), std::string::npos);
  EXPECT_NE(json.find("\"jain_fairness\""), std::string::npos);
}

TEST(PlatformQosTest, DepthCapRejectsWithQueueFull) {
  ExperimentConfig cfg = SmallConfig();
  cfg.load_factor = 1.2;  // overload so the pending set actually backs up
  cfg.platform.qos.admission = "shed";
  cfg.platform.qos.max_queue_depth = 2;
  cfg.platform.qos.shed_infeasible = false;
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_GT(r.recorder->rejected_by(sim::RejectCause::kQueueFull),
            0u);
  EXPECT_EQ(r.recorder->finished_requests(), r.recorder->total_requests());
}

TEST(PlatformQosTest, InfeasibleSheddingFiresUnderOverload) {
  ExperimentConfig cfg = SmallConfig();
  cfg.load_factor = 1.5;
  cfg.platform.qos.admission = "shed";
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_GT(r.recorder->rejected_by(sim::RejectCause::kDeadlineInfeasible),
            0u);
  EXPECT_EQ(r.recorder->finished_requests(), r.recorder->total_requests());
}

TEST(PlatformQosTest, BackpressureTracksPendingAndRejections) {
  sim::Simulator sim;
  auto cluster = gpu::Cluster::Uniform(1, 1, gpu::DefaultPartition());

  std::vector<platform::FunctionSpec> fns;
  int id = 0;
  for (auto& dag : model::BuildStudyApps(model::Variant::kSmall)) {
    const int app = id;
    fns.push_back(platform::MakeFunctionSpec(
        FunctionId(id++), app, model::Variant::kSmall, dag, 1.5));
  }

  platform::PlatformConfig pcfg;
  pcfg.qos.admission = "shed";
  pcfg.qos.rate_rps = 1.0;  // bucket of 1: a burst can only land one
  pcfg.qos.burst = 1.0;
  pcfg.qos.shed_infeasible = false;
  metrics::Recorder recorder(cluster);
  recorder.SubscribeTo(sim.bus());
  platform::PlatformCore plat(sim, cluster, fns, pcfg,
                              MakeBundle(SystemKind::kFluidFaas));
  EXPECT_STREQ(plat.queue().name(), "fifo");

  plat.Start();
  // An 8-wide burst at t=0 against a 1 rps bucket: exactly one admission
  // and seven typed rejections.
  sim.At(0, [&plat] {
    for (int i = 0; i < 8; ++i) plat.Submit(FunctionId(0));
  });
  sim.RunUntil(Millis(1));

  EXPECT_EQ(recorder.rejected_by(sim::RejectCause::kRateLimited), 7u);
  EXPECT_EQ(recorder.rejected_requests(), 7u);
  EXPECT_EQ(plat.queue().DepthOf(FunctionId(0)), plat.PendingCount());
  EXPECT_EQ(plat.queue().DepthOf(FunctionId(1)), 0u);

  sim.RunUntil(Seconds(60));
  plat.Stop();
}

}  // namespace
}  // namespace fluidfaas::harness
