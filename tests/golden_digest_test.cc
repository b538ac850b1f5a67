// Golden per-request digests of fault-free runs: the safety net for
// refactors that must not change any scheduling decision.
//
// Each cell runs one scheduler on one workload tier for 60 s of simulated
// trace (paper cluster, seed 1234, default fifo/none queue policy) and
// hashes every request record: arrival, deadline, completion, the queue /
// load / exec / transfer phase times, retries and the reject cause. Any
// change to routing, placement or scaling shows up as a different hash.
// Change an expected value only together with a change that intends to
// alter behaviour, and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/json_report.h"
#include "harness/sweep.h"

namespace fluidfaas::harness {
namespace {

class Fnv1a {
 public:
  void Add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddBytes(const std::string& s) {
    for (const char c : s) Add(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t DigestRecords(const metrics::Recorder& rec) {
  Fnv1a h;
  for (const metrics::RequestRecord& r : rec.records()) {
    h.Add(r.id.value);
    h.Add(r.fn.value);
    h.Add(r.arrival);
    h.Add(r.deadline);
    h.Add(r.completion);
    h.Add(r.queue_time);
    h.Add(r.load_time);
    h.Add(r.exec_time);
    h.Add(r.transfer_time);
    h.Add(r.retries);
    h.Add(static_cast<std::int64_t>(r.reject_cause));
    h.Add((r.timed_out ? 1 : 0) | (r.aborted ? 2 : 0) | (r.rejected ? 4 : 0));
  }
  return h.value();
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenCell {
  SystemKind system;
  trace::WorkloadTier tier;
  std::uint64_t digest;
};

using trace::WorkloadTier;
constexpr SystemKind kFfs = SystemKind::kFluidFaas;
constexpr SystemKind kDist = SystemKind::kFluidFaasDistributed;

constexpr GoldenCell kGolden[] = {
    {kFfs, WorkloadTier::kLight, 0x8130c06bca3efae3ULL},
    {kFfs, WorkloadTier::kMedium, 0x1b45546ef5217e34ULL},
    {kFfs, WorkloadTier::kHeavy, 0xff0bce44c55fd787ULL},
    {kDist, WorkloadTier::kLight, 0xc8a05f6a94c2715cULL},
    {kDist, WorkloadTier::kMedium, 0xcd6ced5a601c6083ULL},
    {kDist, WorkloadTier::kHeavy, 0x3e03b3fdfabe4b2aULL},
};

TEST(GoldenDigestTest, FluidFaasSchedulersFaultFree) {
  for (const GoldenCell& cell : kGolden) {
    ExperimentConfig cfg;
    cfg.system = cell.system;
    cfg.tier = cell.tier;
    cfg.duration = Seconds(60);
    const ExperimentResult r = RunExperiment(cfg);
    ASSERT_GT(r.recorder->records().size(), 0u);
    EXPECT_EQ(Hex(DigestRecords(*r.recorder)), Hex(cell.digest))
        << r.system << " / " << r.tier;
  }
}

// The bytes of the JSON report (ResultsToJson) for all five schedulers on a
// medium-tier, 30 s trace, fault-free fifo/none and under faults with the
// fair queue and shed admission. The faulted config makes the availability,
// QoS-reject and scheduler-counter keys non-zero, so this pins every key
// and value the report prints, not just the simulation underneath it.
TEST(GoldenDigestTest, ReportJsonBytes) {
  struct ReportCell {
    const char* label;
    double fault_rate;
    const char* queue;
    const char* admission;
    std::uint64_t digest;
  };
  constexpr ReportCell kReports[] = {
      {"fault-free fifo/none", 0.0, "fifo", "none", 0xa63bcf5bc5f99bedULL},
      {"faults 0.05 fair/shed", 0.05, "fair", "shed", 0x40c5c7c2129ab046ULL},
  };
  for (const ReportCell& cell : kReports) {
    std::vector<ExperimentConfig> configs;
    for (SystemKind kind :
         {SystemKind::kInfless, SystemKind::kEsg, SystemKind::kRepartition,
          SystemKind::kFluidFaasDistributed, SystemKind::kFluidFaas}) {
      ExperimentConfig cfg;
      cfg.system = kind;
      cfg.tier = WorkloadTier::kMedium;
      cfg.duration = Seconds(30);
      cfg.faults.rate = cell.fault_rate;
      cfg.faults.timeout_scale = cell.fault_rate > 0.0 ? 3.0 : 0.0;
      cfg.platform.qos.queue = cell.queue;
      cfg.platform.qos.admission = cell.admission;
      configs.push_back(cfg);
    }
    Fnv1a h;
    h.AddBytes(ResultsToJson(RunConfigs(configs)));
    EXPECT_EQ(Hex(h.value()), Hex(cell.digest)) << cell.label;
  }
}

}  // namespace
}  // namespace fluidfaas::harness
