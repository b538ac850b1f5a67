// Fault sweep (robustness extension): how gracefully does each scheduler
// degrade as deterministic fault injection ramps up? At rate 0 this is the
// exact fault-free simulation; each higher rate adds instance crashes,
// slice failures, doomed cold starts and slow-start stragglers (see
// DESIGN.md "Failure model"). Goodput counts SLO-hit completions that were
// not disqualified by the enforcement timeout, so a scheduler that retries
// well keeps goodput close to its fault-free throughput.
//
// The rate × system grid executes as one parallel sweep (fault rate is a
// first-class sweep axis); rows follow grid order, so stdout is
// byte-identical at any FFS_JOBS. The full per-cell report lands in the
// standard sweep artifact, fault_sweep.json (FFS_SWEEP_OUT overrides it).
#include "bench/bench_util.h"

using namespace fluidfaas;

namespace {

constexpr double kRates[] = {0.0, 0.01, 0.03, 0.1};

constexpr harness::SystemKind kSystems[] = {
    harness::SystemKind::kInfless,    harness::SystemKind::kEsg,
    harness::SystemKind::kRepartition,
    harness::SystemKind::kFluidFaasDistributed,
    harness::SystemKind::kFluidFaas,
};

constexpr std::size_t kNumSystems = sizeof(kSystems) / sizeof(kSystems[0]);

}  // namespace

int main() {
  bench::Banner("Fault sweep — goodput & SLO degradation under injection",
                "robustness extension beyond the paper");

  harness::SweepSpec spec;
  spec.base = bench::PaperConfig(trace::WorkloadTier::kMedium);
  spec.base.faults.mttr = Seconds(30.0);
  spec.base.faults.timeout_scale = 3.0;
  spec.fault_rates.assign(std::begin(kRates), std::end(kRates));
  spec.systems.assign(std::begin(kSystems), std::end(kSystems));
  const harness::SweepOutcome sweep = harness::RunSweep(spec);

  metrics::Table table({"rate (/s)", "System", "goodput", "SLO hit",
                        "vs rate 0", "inst fail", "slice fail", "retries",
                        "recovered", "abandoned", "plans", "aborted"});

  // Fault-free goodput per system, the baseline of the degradation column.
  // The rate-0 cells are the grid's first row (fault rate is the outer
  // axis), so they are always populated before higher rates consult them.
  double baseline[kNumSystems] = {};

  for (const harness::SweepCell& cell : sweep.cells) {
    const std::size_t s = cell.point.index % kNumSystems;
    const double rate = cell.point.fault_rate;
    const auto& r = cell.result;
    const metrics::Recorder& rec = *r.recorder;
    if (rate == 0.0) baseline[s] = r.goodput_rps;
    const double rel =
        baseline[s] > 0.0 ? r.goodput_rps / baseline[s] : 1.0;
    table.AddRow({metrics::Fmt(rate, 2), r.system,
                  metrics::Fmt(r.goodput_rps, 1) + " rps",
                  metrics::FmtPercent(rec.SloHitRate()),
                  metrics::FmtPercent(rel),
                  std::to_string(rec.instances_failed()),
                  std::to_string(rec.slices_failed()),
                  std::to_string(rec.retries_total()),
                  std::to_string(rec.RecoveredRequests()),
                  std::to_string(rec.abandoned_requests()),
                  std::to_string(rec.plans_committed() + rec.plans_aborted()),
                  std::to_string(rec.plans_aborted())});
  }
  table.Print();

  std::cout << "\n";
  bench::ReportSweepArtifact(sweep, "fault_sweep.json");
  std::cout << "Failures stay contained to single MIG slices (strong\n"
               "isolation); the degradation column shows how much of each\n"
               "scheduler's fault-free goodput survives the injection.\n";
  return 0;
}
