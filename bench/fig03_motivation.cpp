// Figure 3 (motivation): (a) ESG's GPU usage versus the ideal required
// resource over time; (b) per-profile MIG usage over the whole run (the paper
// shows it at the most over-provisioned second, "the 83rd second").
#include <map>

#include "bench/bench_util.h"
#include "harness/run_context.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Figure 3 — ESG over-provisioning and idle MIG profiles",
                "Fig. 3(a)+(b)");
  auto cfg = bench::PaperConfig(trace::WorkloadTier::kMedium);
  cfg.system = harness::SystemKind::kEsg;
  harness::RunContext ctx(cfg);
  const trace::Workload& workload = ctx.workload();
  const harness::ExperimentResult esg = ctx.Run();

  // The "required GPU resource" is the offered load of the run: the
  // GPC-seconds of work arriving per second (ideal work-conserving demand),
  // smoothed over 5 s windows.
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
  // The peak window's bound and required GPCs; none (no gain to print)
  // until a window that needs more than 2 GPCs has any bound.
  SimTime worst_t = 0;
  double worst_bound = 0.0;
  double worst_need = 0.0;
  for (SimTime t = 0; t + win <= cfg.duration; t += win) {
    const double need = required.count(t) ? required[t] : 0.0;
    const double bound = esg.recorder->bound_gpcs().MeanOver(t, t + win);
    const double busy = esg.recorder->busy_gpcs().MeanOver(t, t + win);
    const double peak = worst_need > 0.0 ? worst_bound / worst_need : 0.0;
    if (need > 2.0 && bound / need > peak) {
      worst_bound = bound;
      worst_need = need;
      worst_t = t;
    }
    if (t % Seconds(15) == 0) {
      table.AddRow({metrics::Fmt(ToSeconds(t), 0), metrics::Fmt(need, 1),
                    metrics::Fmt(bound, 1), metrics::Fmt(busy, 1),
                    metrics::FmtGain(bound, need, 0)});
    }
  }
  table.Print();
  std::cout << "peak over-provisioning: "
            << metrics::FmtGain(worst_bound, worst_need, 0) << " at t="
            << metrics::Fmt(ToSeconds(worst_t), 0)
            << "s (paper: +167% at the 83rd second)\n\n";

  std::cout << "--- (b) per-profile busy share over the whole run ---\n";
  metrics::Table mig({"profile", "slices", "mean busy fraction"});
  std::map<int, std::pair<int, double>> by_gpcs;  // gpcs -> (count, busy)
  // The per-slice totals cover the whole run: the paper's point is which
  // profiles are ever used, and the recorder keeps no per-slice timeline.
  for (const auto& s : esg.recorder->PerSliceTotals()) {
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
