// Overload sweep (QoS extension, DESIGN.md §9): how do the queueing
// disciplines and admission control change behaviour as offered load climbs
// past capacity? Each scheduler runs under four queue policies —
//   fifo/none  the legacy adjusted-deadline FIFO, no admission control
//   fair/none  per-function virtual-time fair queueing (MQFQ-style)
//   edf/none   earliest-deadline-first
//   fifo/shed  FIFO plus deadline-infeasible shedding at dispatch
// at 1x / 1.5x / 2x the tier's default load factor. Fair queueing targets
// the starved-tenant tail (worst-function p99, Jain index); shedding
// targets goodput — dropping doomed work early frees slices for requests
// that can still hit their SLO.
//
// Every cell is replicated across kSeeds trace seeds and the table reports
// per-cell means: the tail metrics under hard overload are seed-sensitive
// (which functions the synthesizer makes hot decides who starves), so a
// single seed can flip a small fairness delta either way. Three seeds are
// enough for the orderings this bench demonstrates to be stable.
//
// The whole grid is one sweep: load factor × QoS variant × seed × system,
// with the four policies as the variants axis. Rows and the artifact land
// in grid order, so stdout is byte-identical at any FFS_JOBS. The artifact
// is the standard sweep document (fluidfaas.sweep.v1): one cell per run,
// each naming its variant, written to overload_sweep.json or
// $FFS_SWEEP_OUT.
#include <array>

#include "bench/bench_util.h"

using namespace fluidfaas;

namespace {

constexpr double kLoadMultipliers[] = {1.0, 1.5, 2.0};
// Medium tier's default load factor (trace::DefaultLoadFactor).
constexpr double kBaseLoadFactor = 0.52;
constexpr uint64_t kSeeds[] = {1, 2, 3};

struct QosVariant {
  const char* label;
  const char* queue;
  const char* admission;
};

constexpr QosVariant kVariants[] = {
    {"fifo/none", "fifo", "none"},
    {"fair/none", "fair", "none"},
    {"edf/none", "edf", "none"},
    {"fifo/shed", "fifo", "shed"},
};

constexpr harness::SystemKind kSystems[] = {
    harness::SystemKind::kInfless,    harness::SystemKind::kEsg,
    harness::SystemKind::kRepartition,
    harness::SystemKind::kFluidFaasDistributed,
    harness::SystemKind::kFluidFaas,
};

}  // namespace

int main() {
  bench::Banner("Overload sweep — queue disciplines & admission control",
                "QoS extension beyond the paper");

  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kMedium);
  spec.base.duration = bench::BenchDuration(60.0);
  for (const double mult : kLoadMultipliers) {
    spec.load_factors.push_back(kBaseLoadFactor * mult);
  }
  for (const QosVariant& v : kVariants) {
    spec.variants.push_back({v.label, [v](harness::ExperimentConfig& cfg) {
                               cfg.platform.qos.queue = v.queue;
                               cfg.platform.qos.admission = v.admission;
                             }});
  }
  spec.seeds.assign(std::begin(kSeeds), std::end(kSeeds));
  spec.systems.assign(std::begin(kSystems), std::end(kSystems));
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  constexpr std::size_t kReps = std::size(kSeeds);
  constexpr std::size_t kNumSystems = std::size(kSystems);
  metrics::Table table({"load", "policy", "system", "goodput", "SLO hit",
                        "worst-fn p99", "jain", "rejected", "top cause"});
  // One block of kReps × kNumSystems cells per (load, variant), seed-major.
  std::size_t block = 0;
  for (const double mult : kLoadMultipliers) {
    for (const QosVariant& v : kVariants) {
      for (std::size_t s = 0; s < kNumSystems; ++s) {
        // Mean over the seed replicas; rejection causes summed so the
        // dominant cause reflects the whole replica set.
        double goodput = 0, slo = 0, p99 = 0, jain = 0, rejected = 0;
        std::array<std::size_t, sim::kNumRejectCauses> by_cause{};
        for (std::size_t k = 0; k < kReps; ++k) {
          const harness::ExperimentResult& r =
              sweep.cells[block + k * kNumSystems + s].result;
          const metrics::Recorder& rec = *r.recorder;
          goodput += r.goodput_rps;
          slo += rec.SloHitRate();
          p99 += rec.WorstFunctionP99();
          jain += rec.JainFairnessIndex();
          rejected += static_cast<double>(rec.rejected_requests());
          for (int c = 0; c < sim::kNumRejectCauses; ++c) {
            by_cause[static_cast<std::size_t>(c)] +=
                rec.rejected_by(static_cast<sim::RejectCause>(c));
          }
        }
        goodput /= kReps;
        slo /= kReps;
        p99 /= kReps;
        jain /= kReps;
        rejected /= kReps;
        std::size_t worst = 0;
        const char* worst_name = "-";
        for (int c = 1; c < sim::kNumRejectCauses; ++c) {
          const std::size_t n = by_cause[static_cast<std::size_t>(c)];
          if (n > worst) {
            worst = n;
            worst_name = sim::Name(static_cast<sim::RejectCause>(c));
          }
        }
        table.AddRow({metrics::Fmt(mult, 1) + "x", v.label,
                      sweep.cells[block + s].result.system,
                      metrics::Fmt(goodput, 1) + " rps",
                      metrics::FmtPercent(slo),
                      metrics::Fmt(p99, 2) + "s", metrics::Fmt(jain, 3),
                      metrics::Fmt(rejected, 0), worst_name});
      }
      block += kReps * kNumSystems;
    }
  }
  table.Print();

  std::cout << "\n";
  bench::ReportSweepArtifact(sweep, "overload_sweep.json");
  std::cout << "At 2x load, fair queueing trades a little aggregate\n"
               "throughput for a flatter per-function profile (higher Jain,\n"
               "lower worst-function p99); shedding drops work that cannot\n"
               "meet its deadline, lifting goodput over admit-everything.\n";
  return 0;
}
