// Golden per-request digests: the safety net for refactors that must not
// change any scheduling decision.
//
// Each cell runs one of the five schedulers on one workload tier for 60 s
// of simulated trace (paper cluster, seed 1234; fault-free with the default
// fifo/none queue policy unless a test says otherwise) and hashes every
// request record: arrival, deadline, completion, the queue / load / exec /
// transfer phase times, retries and the reject cause. Any change to
// routing, placement or scaling shows up as a different hash.
// Change an expected value only together with a change that intends to
// alter behaviour, and say why in the commit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
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
constexpr SystemKind kEsg = SystemKind::kEsg;
constexpr SystemKind kInfless = SystemKind::kInfless;
constexpr SystemKind kRepart = SystemKind::kRepartition;

constexpr GoldenCell kGolden[] = {
    {kFfs, WorkloadTier::kLight, 0x8130c06bca3efae3ULL},
    {kFfs, WorkloadTier::kMedium, 0x1b45546ef5217e34ULL},
    {kFfs, WorkloadTier::kHeavy, 0xff0bce44c55fd787ULL},
    {kDist, WorkloadTier::kLight, 0xc8a05f6a94c2715cULL},
    {kDist, WorkloadTier::kMedium, 0xcd6ced5a601c6083ULL},
    {kDist, WorkloadTier::kHeavy, 0x3e03b3fdfabe4b2aULL},
    {kEsg, WorkloadTier::kLight, 0xd593a4613fa4d796ULL},
    {kEsg, WorkloadTier::kMedium, 0xba5e983942a60ba6ULL},
    {kEsg, WorkloadTier::kHeavy, 0xd2dd0e781b28a548ULL},
    {kInfless, WorkloadTier::kLight, 0x1902e6c0447300b7ULL},
    {kInfless, WorkloadTier::kMedium, 0xe37372db33cabccbULL},
    {kInfless, WorkloadTier::kHeavy, 0x6535e6da98d6308bULL},
    {kRepart, WorkloadTier::kLight, 0xc0723feddb61f63fULL},
    {kRepart, WorkloadTier::kMedium, 0x1b12f82c5227417fULL},
    {kRepart, WorkloadTier::kHeavy, 0x4ed323cafbacb4bfULL},
};

TEST(GoldenDigestTest, AllSchedulersFaultFree) {
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

// Per-request digests of all five schedulers, 60 s, under queue policies
// and faults (0.05 faults/s with an enforcement timeout of 3× SLO): medium
// on the paper cluster, and heavy on 8 nodes. The faulted rows pin the
// recovery path of every scheduler: crash harvesting, retries, resume at
// the failed stage, timeouts and rejections. The heavy 8-node row has the
// most instance churn (evictions, migrations, crashes). The two heavy
// 2-node shed rows pin the key-ordered queues (fifo and edf) under
// deadline-infeasible shedding with a deep pending set. The heavy 32-node
// row pins a long run at scale. The heavy 128-node row (20 s) is the
// largest cluster any digest runs: the routers there choose among hundreds
// of instances per function. The last two rows set the load and the
// timeout: perfbench's overload-qos shape (load 1.04, fair/shed, timeout
// 4×), and load 1.5 under a 1× timeout, where thousands of requests time
// out, so the expiry path runs in every position (in the pending set,
// queued on an instance, mid-execution).
TEST(GoldenDigestTest, AllSchedulersMediumQosAndFaults) {
  struct VariantCell {
    const char* label;
    WorkloadTier tier;
    int num_nodes;
    double load;  // 0 = the tier's default
    double fault_rate;
    double timeout_scale;  // × SLO; 0 = no enforcement timeout
    const char* queue;
    const char* admission;
    std::uint64_t digests[5];  // kFfs, kDist, kEsg, kInfless, kRepart
    int seconds = 60;
  };
  constexpr SystemKind kSystems[] = {kFfs, kDist, kEsg, kInfless, kRepart};
  constexpr VariantCell kVariants[] = {
      {"faults 0.05 fair/shed", WorkloadTier::kMedium, 2, 0.0, 0.05, 3.0,
       "fair", "shed",
       {0xfb5f8596782216ccULL, 0xe62192216a2236c0ULL,
        0xa8b69b2ab153d7d7ULL, 0xdc6fb4459d926704ULL,
        0xba9cba46a671cf7aULL}},
      {"faults 0.05 fifo/none", WorkloadTier::kMedium, 2, 0.0, 0.05, 3.0,
       "fifo", "none",
       {0xfe7cf691c6bd2f21ULL, 0x5da7c1540a55525eULL,
        0xdf5307f16c08e449ULL, 0xed797ce8744876aeULL,
        0x289235acc50aec75ULL}},
      {"fault-free fair/shed", WorkloadTier::kMedium, 2, 0.0, 0.0, 0.0, "fair",
       "shed",
       {0x308b5173fad3c5ccULL, 0x637736c5cadc2569ULL,
        0x6bc0805ccc7bd668ULL, 0x98fffe9f7fe941daULL,
        0x85885167abb9fde3ULL}},
      {"fault-free edf/none", WorkloadTier::kMedium, 2, 0.0, 0.0, 0.0, "edf",
       "none",
       {0xaf07f1ef7493df2fULL, 0xc2270a64dd20323bULL,
        0x2c151a11f89832edULL, 0x8e988085781b9d67ULL,
        0x40b7b75d881e1869ULL}},
      {"heavy 8 nodes faults 0.05 fifo/none", WorkloadTier::kHeavy, 8, 0.0,
       0.05, 3.0, "fifo", "none",
       {0x4cfedbaf1e95b3c0ULL, 0x120534e73a1d9db1ULL,
        0x60273cfea9fc885fULL, 0x9837d61d4fa880baULL,
        0xb47ed59ded4a15d9ULL}},
      {"heavy fault-free fifo/shed", WorkloadTier::kHeavy, 2, 0.0, 0.0, 0.0,
       "fifo", "shed",
       {0x36ccafcfa5be7ab7ULL, 0x9e928764db0adb9bULL,
        0xb537a0037b0d1a48ULL, 0x49aa29510907c303ULL,
        0x3189116f69b387d4ULL}},
      {"heavy faults 0.05 edf/shed", WorkloadTier::kHeavy, 2, 0.0, 0.05, 3.0,
       "edf", "shed",
       {0x0e3edfc5eb53ff16ULL, 0x77001a6ac6d467d3ULL,
        0x3574c6c6250ce181ULL, 0x9337065006f4a708ULL,
        0x562e91803888d857ULL}},
      {"heavy 32 nodes fault-free fifo/none", WorkloadTier::kHeavy, 32, 0.0,
       0.0, 0.0, "fifo", "none",
       {0xfa40d682e5d4ef76ULL, 0xb2ab3f11e75caf9fULL,
        0x67f104a381e720f9ULL, 0xfb1ab53e013e4301ULL,
        0xa80e8d5dc4d26bdaULL}},
      {"heavy 128 nodes fault-free fifo/none", WorkloadTier::kHeavy, 128,
       0.0, 0.0, 0.0, "fifo", "none",
       {0x3108e233c9c6895cULL, 0x8b45116adfd8c69bULL,
        0xfbd262f0cd3e0d73ULL, 0x9af263f6fbf853f7ULL,
        0x2edfd177c4fb802dULL},
       20},
      {"overload-qos shape", WorkloadTier::kMedium, 2, 1.04, 0.05, 4.0, "fair",
       "shed",
       {0xe86c6493108527f2ULL, 0xf215c1e642a6ff9aULL,
        0x193cd6c55b9a91a3ULL, 0x5fc97a0ce632fa8fULL,
        0x3f1058727bebc6cfULL}},
      {"load 1.5 faults 0.05 timeout 1x fifo/none", WorkloadTier::kMedium, 2,
       1.5, 0.05, 1.0, "fifo", "none",
       {0x7ab54889c135415eULL, 0xb8c4d605ad49944cULL,
        0x4b6f9b00bc6b933dULL, 0x950bdb89f5b72da2ULL,
        0xb426619f4f3130d3ULL}},
  };
  for (const VariantCell& v : kVariants) {
    for (std::size_t s = 0; s < std::size(kSystems); ++s) {
      ExperimentConfig cfg;
      cfg.system = kSystems[s];
      cfg.tier = v.tier;
      cfg.num_nodes = v.num_nodes;
      cfg.duration = Seconds(v.seconds);
      cfg.faults.rate = v.fault_rate;
      cfg.load_factor = v.load;
      cfg.faults.timeout_scale = v.timeout_scale;
      cfg.platform.qos.queue = v.queue;
      cfg.platform.qos.admission = v.admission;
      const ExperimentResult r = RunExperiment(cfg);
      ASSERT_GT(r.recorder->records().size(), 0u);
      if (v.fault_rate > 0.0) {
        ASSERT_GT(r.recorder->instances_failed(), 0u) << r.system;
      }
      if (v.timeout_scale == 1.0) {
        ASSERT_GT(r.recorder->timeouts(), 0u) << r.system;
      }
      EXPECT_EQ(Hex(DigestRecords(*r.recorder)), Hex(v.digests[s]))
          << r.system << " / " << v.label;
    }
  }
}

// FluidFaaS and FluidFaaS-dist on the heavy tier, paper cluster, 60 s,
// with one design feature switched off per row. Without time sharing the
// first request of a function launches an exclusive instance from Route
// itself; without pipelines every exclusive instance is monolithic; without
// migration no pipeline is consolidated. This trace makes no migration, so
// the last row equals the fault-free heavy cells.
TEST(GoldenDigestTest, FluidFaasAblations) {
  struct AblationCell {
    const char* label;
    void (*apply)(platform::PlatformConfig&);
    std::uint64_t digests[2];  // kFfs, kDist
  };
  constexpr SystemKind kSystems[] = {kFfs, kDist};
  constexpr AblationCell kAblations[] = {
      {"no time sharing",
       [](platform::PlatformConfig& p) { p.enable_time_sharing = false; },
       {0x6bec8c6e61e37e23ULL, 0xcc7efac47f2d31afULL}},
      {"no pipelines",
       [](platform::PlatformConfig& p) { p.enable_pipelines = false; },
       {0x77ae504a4e5d6b68ULL, 0x6a6b69fb423a4508ULL}},
      {"no migration",
       [](platform::PlatformConfig& p) { p.enable_migration = false; },
       {0xff0bce44c55fd787ULL, 0x3e03b3fdfabe4b2aULL}},
  };
  for (const AblationCell& a : kAblations) {
    for (std::size_t s = 0; s < std::size(kSystems); ++s) {
      ExperimentConfig cfg;
      cfg.system = kSystems[s];
      cfg.tier = WorkloadTier::kHeavy;
      cfg.duration = Seconds(60);
      a.apply(cfg.platform);
      const ExperimentResult r = RunExperiment(cfg);
      ASSERT_GT(r.recorder->records().size(), 0u);
      EXPECT_EQ(Hex(DigestRecords(*r.recorder)), Hex(a.digests[s]))
          << r.system << " / " << a.label;
    }
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
    int duration_s;
    int max_stages;
    double fault_rate;
    const char* queue;
    const char* admission;
    std::uint64_t digest;
  };
  // The 2-stage row is the one where every "scheduler" counter is non-zero
  // for some scheduler (FluidFaaS evicts and migrates, Repartition
  // reconfigures), so it pins each of them.
  constexpr ReportCell kReports[] = {
      {"fault-free fifo/none", 30, 4, 0.0, "fifo", "none",
       0xa63bcf5bc5f99bedULL},
      {"faults 0.05 fair/shed", 30, 4, 0.05, "fair", "shed",
       0xa5d9daa84cf71eadULL},
      {"60 s max 2 stages fifo/none", 60, 2, 0.0, "fifo", "none",
       0x6e1c7bc2ff2a6b96ULL},
  };
  SweepSpec spec;
  spec.base.tier = WorkloadTier::kMedium;
  for (const ReportCell& cell : kReports) {
    spec.variants.push_back({cell.label, [cell](ExperimentConfig& cfg) {
                               cfg.duration = Seconds(cell.duration_s);
                               cfg.platform.max_stages = cell.max_stages;
                               cfg.faults.rate = cell.fault_rate;
                               cfg.faults.timeout_scale =
                                   cell.fault_rate > 0.0 ? 3.0 : 0.0;
                               cfg.platform.qos.queue = cell.queue;
                               cfg.platform.qos.admission = cell.admission;
                             }});
  }
  spec.systems = {kInfless, kEsg, kRepart, kDist, kFfs};
  SweepOutcome sweep = RunSweep(spec);
  for (std::size_t v = 0; v < std::size(kReports); ++v) {
    std::vector<ExperimentResult> results;
    for (SweepCell& c : sweep.cells) {
      if (c.point.variant_index == v) results.push_back(std::move(c.result));
    }
    Fnv1a h;
    h.AddBytes(ResultsToJson(results));
    EXPECT_EQ(Hex(h.value()), Hex(kReports[v].digest)) << kReports[v].label;
  }
}

// The bytes of the Chrome trace (`--trace-out`, metrics::TraceExporter) of
// FluidFaaS and Repartition on a medium-tier, 60 s trace under faults 0.2/s,
// timeout 3x, fair queue and shed admission. Between them the two traces
// hold every span kind the exporter writes: completed, timed-out and
// rejected request spans, retry, failure, slice-failure and repair markers,
// and Repartition's `gpu` repartition spans. The spans still open at the
// end are written in id order.
TEST(GoldenDigestTest, ChromeTraceBytes) {
  struct TraceCell {
    SystemKind system;
    std::uint64_t digest;
    std::vector<const char*> holds;  // substrings the trace must contain
  };
  const TraceCell kTraces[] = {
      {kFfs, 0x785028d00b37a35fULL,
       {" (timeout)\"", " (rejected)\"", "\"name\":\"retry", "\"failed: ",
        "\"slice failed\"", "\"repaired\""}},
      {kRepart, 0x066566c199cb9947ULL,
       {" (rejected)\"", "\"name\":\"retry", "\"failed: ",
        "\"slice failed\"", "\"repaired\"", "\"cat\":\"gpu\""}},
  };
  for (const TraceCell& t : kTraces) {
    ExperimentConfig cfg;
    cfg.system = t.system;
    cfg.tier = WorkloadTier::kMedium;
    cfg.duration = Seconds(60);
    cfg.faults.rate = 0.2;
    cfg.faults.timeout_scale = 3.0;
    cfg.platform.qos.queue = "fair";
    cfg.platform.qos.admission = "shed";
    cfg.trace_out = testing::TempDir() + "golden_trace_" +
                    std::to_string(::getpid()) + "_" + Name(t.system) +
                    ".json";
    const ExperimentResult r = RunExperiment(cfg);
    std::ifstream in(cfg.trace_out);
    ASSERT_TRUE(in) << cfg.trace_out;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    in.close();
    std::remove(cfg.trace_out.c_str());
    const std::string json = bytes.str();
    for (const char* needle : t.holds) {
      EXPECT_NE(json.find(needle), std::string::npos)
          << r.system << ": " << needle;
    }
    Fnv1a h;
    h.AddBytes(json);
    EXPECT_EQ(Hex(h.value()), Hex(t.digest)) << r.system;
  }
}

}  // namespace
}  // namespace fluidfaas::harness
