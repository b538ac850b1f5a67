// fluidfaas — command-line front end for the simulator.
//
//   fluidfaas run   [--tier light|medium|heavy] [--system fluidfaas|esg|
//                    infless|repartition|distributed|all] [--nodes N]
//                    [--gpus N] [--duration SECONDS] [--load FRACTION]
//                    [--seed N] [--partition SPEC] [--trace FILE]
//                    [--json FILE] [--csv FILE] [--trace-out FILE]
//                    [--fault-rate R] [--fault-seed N] [--mttr SECONDS]
//                    [--timeout-scale S] [--queue fifo|fair|edf]
//                    [--admission none|shed] [--rate RPS] [--queue-cap N]
//                    [--jobs N]
//   fluidfaas sweep [--systems a,b,...|all] [--tiers light,medium,...]
//                    [--seeds 1,2,...] [--loads 0.2,0.5,...]
//                    [--fault-rates 0,0.01,...] [--nodes N] [--gpus N]
//                    [--duration SECONDS] [--queue fifo|fair|edf]
//                    [--admission none|shed] [--jobs N] [--out FILE]
//                    [--no-timing 1]
//   fluidfaas trace [--functions N] [--rps R] [--duration SECONDS]
//                    [--seed N] [--out FILE]
//                    [--azure FILE [--minutes N] [--scale S]]
//   fluidfaas plan  [--app 0..3 | --llm 7b|13b|34b]
//                    [--variant small|medium|large] [--stages N]
//   fluidfaas partitions
//
// `run` replays a synthesized Azure-like trace through the chosen
// platform(s) and prints the comparison table. `all` (the default, and
// `sweep --systems all`) means INFless, ESG and FluidFaaS; `distributed`
// is FluidFaaS-dist. `--json` writes the report; `--csv` additionally dumps
// per-request records and `--trace-out` writes a Chrome-trace JSON of the
// run (load it in chrome://tracing or https://ui.perfetto.dev; single
// system only). `sweep` executes a declarative grid (system × tier × seed
// × load × fault rate) on a worker pool — deterministic output at any
// --jobs — and writes the BENCH_sweep.json artifact. `trace` synthesizes
// an Azure-like CSV, or with `--azure` converts the top --functions of a
// real Azure Functions dataset file, --minutes long, counts scaled by
// --scale. `plan` prints the CV-ranked pipeline candidates for one
// application. `partitions` enumerates every maximal A100 MIG
// configuration under the placement rules. Both multi-run commands honor --jobs / FFS_JOBS (default:
// hardware threads).
#include <fstream>
#include <iostream>

#include "harness/sweep.h"

#include "core/partitioner.h"
#include "harness/experiment.h"
#include "harness/json_report.h"
#include "metrics/report.h"
#include "model/llm.h"
#include "model/zoo.h"
#include "tools/cli_args.h"
#include "trace/azure_loader.h"
#include "trace/trace.h"

using namespace fluidfaas;
using tools::CliArgs;

namespace {

int Usage() {
  std::cout <<
      "usage: fluidfaas <run|sweep|trace|plan|partitions> [--flag value ...]\n"
      "  run        replay a workload through one platform (fluidfaas, esg,\n"
      "             infless, repartition, distributed) or all (INFless,\n"
      "             ESG, FluidFaaS)\n"
      "  sweep      run a system/tier/seed/load/fault-rate grid in parallel\n"
      "  trace      synthesize an Azure-like invocation trace (CSV)\n"
      "  plan       show CV-ranked pipeline candidates for an application\n"
      "  partitions enumerate maximal A100 MIG configurations\n"
      "See the header of tools/fluidfaas_cli.cpp for the full flag list.\n";
  return 2;
}

trace::WorkloadTier ParseTier(const std::string& s) {
  if (s == "light") return trace::WorkloadTier::kLight;
  if (s == "medium") return trace::WorkloadTier::kMedium;
  if (s == "heavy") return trace::WorkloadTier::kHeavy;
  throw FfsError("unknown tier: " + s);
}

int ParseJobs(const CliArgs& args) {
  const long jobs = args.GetInt("jobs", 0);
  if (args.Has("jobs") && jobs < 1) {
    throw FfsError("--jobs must be a positive integer");
  }
  return static_cast<int>(jobs);  // 0 = FFS_JOBS / hardware default
}

int CmdRun(const CliArgs& args) {
  harness::ExperimentConfig cfg;
  cfg.tier = ParseTier(args.GetString("tier", "medium"));
  cfg.num_nodes = args.GetCount("nodes", 2);
  cfg.gpus_per_node = args.GetCount("gpus", 8);
  cfg.duration = Seconds(args.GetPositive("duration", 150.0));
  cfg.load_factor = args.GetNonNegative("load", 0.0);
  cfg.seed = args.Get<std::uint64_t>("seed", 1234);
  if (args.Has("partition")) {
    const auto part = gpu::MigPartition::Parse(args.GetString("partition", ""));
    cfg.partitions.assign(
        static_cast<std::size_t>(cfg.num_nodes),
        std::vector<gpu::MigPartition>(
            static_cast<std::size_t>(cfg.gpus_per_node), part));
  }

  if (args.Has("trace")) {
    std::ifstream in(args.GetString("trace", ""));
    FFS_CHECK_MSG(in.good(), "cannot open trace file");
    cfg.custom_trace = trace::LoadCsv(in);
    std::cout << "replaying " << cfg.custom_trace.size()
              << " invocations from " << args.GetString("trace", "") << "\n";
  }

  cfg.trace_out = args.GetString("trace-out", "");

  // Deterministic fault injection: mean faults/s of simulated time across
  // the cluster; 0 (the default) runs exactly the fault-free simulation.
  cfg.faults.rate = args.GetNonNegative("fault-rate", 0.0);
  cfg.faults.seed = args.Get<std::uint64_t>("fault-seed", 0);
  cfg.faults.mttr = Seconds(args.GetDouble("mttr", 30.0));
  cfg.faults.timeout_scale = args.GetNonNegative("timeout-scale", 0.0);

  // QoS queue policy (DESIGN.md §9). The defaults (fifo/none) reproduce the
  // legacy pending queue exactly, so plain runs stay byte-identical.
  cfg.platform.qos.queue = args.GetString("queue", "fifo");
  cfg.platform.qos.admission = args.GetString("admission", "none");
  cfg.platform.qos.rate_rps = args.GetNonNegative("rate", 0.0);
  cfg.platform.qos.max_queue_depth = args.Get<std::size_t>("queue-cap", 0);

  const std::string system = args.GetString("system", "all");
  std::vector<harness::ExperimentResult> results;
  if (system == "all") {
    FFS_CHECK_MSG(cfg.trace_out.empty(),
                  "--trace-out requires a single --system (not 'all')");
    harness::SweepSpec spec;
    spec.base = cfg;
    spec.systems = harness::kComparisonSystems;
    for (harness::SweepCell& c : harness::RunSweep(spec, ParseJobs(args))
                                     .cells) {
      results.push_back(std::move(c.result));
    }
  } else {
    cfg.system = harness::ParseSystem(system);
    results.push_back(harness::RunExperiment(cfg));
    if (!cfg.trace_out.empty()) {
      std::cout << "Chrome trace written to " << cfg.trace_out << "\n";
    }
  }

  metrics::Table table({"system", "completed", "throughput", "SLO hit",
                        "P50", "P95", "MIG time", "GPU time"});
  for (const auto& r : results) {
    const metrics::Recorder& rec = *r.recorder;
    table.AddRow({r.system,
                  std::to_string(rec.completed_requests()) + "/" +
                      std::to_string(rec.total_requests()),
                  metrics::Fmt(r.throughput_rps, 1) + " rps",
                  metrics::FmtPercent(rec.SloHitRate()),
                  metrics::Fmt(rec.LatencyPercentile(0.5), 2) + "s",
                  metrics::Fmt(rec.LatencyPercentile(0.95), 2) + "s",
                  metrics::Fmt(ToSeconds(rec.MigTime()), 0) + "s",
                  metrics::Fmt(ToSeconds(rec.GpuTime()), 0) + "s"});
  }
  std::cout << trace::Name(cfg.tier) << " workload, " << cfg.num_nodes
            << " node(s) x " << cfg.gpus_per_node << " GPU(s), "
            << ToSeconds(cfg.duration) << "s simulated\n";
  table.Print();

  metrics::Table placement({"system", "plans", "committed", "aborted",
                            "spawns", "conflict rate", "top abort cause"});
  for (const auto& r : results) {
    const metrics::Recorder& rec = *r.recorder;
    // Dominant abort cause, or "-" when every plan committed.
    std::size_t worst = 0;
    const char* worst_name = "-";
    for (int c = 1; c < sim::kNumPlanAbortCauses; ++c) {
      const auto cause = static_cast<sim::PlanAbortCause>(c);
      if (rec.plans_aborted_by(cause) > worst) {
        worst = rec.plans_aborted_by(cause);
        worst_name = sim::Name(cause);
      }
    }
    placement.AddRow({r.system,
                      std::to_string(rec.plans_committed() +
                                     rec.plans_aborted()),
                      std::to_string(rec.plans_committed()),
                      std::to_string(rec.plans_aborted()),
                      std::to_string(rec.spawns_committed()),
                      metrics::FmtPercent(rec.PlanConflictRate()),
                      worst_name});
  }
  std::cout << "placement transactions:\n";
  placement.Print();

  if (cfg.faults.rate > 0.0) {
    metrics::Table faults({"system", "goodput", "failed inst", "failed slc",
                           "retries", "recovered", "timeouts", "abandoned"});
    for (const auto& r : results) {
      const metrics::Recorder& rec = *r.recorder;
      faults.AddRow({r.system, metrics::Fmt(r.goodput_rps, 1) + " rps",
                     std::to_string(rec.instances_failed()),
                     std::to_string(rec.slices_failed()),
                     std::to_string(rec.retries_total()),
                     std::to_string(rec.RecoveredRequests()),
                     std::to_string(rec.timeouts()),
                     std::to_string(rec.abandoned_requests())});
    }
    std::cout << "faults: rate " << cfg.faults.rate << "/s, mttr "
              << ToSeconds(cfg.faults.mttr) << "s, timeout scale "
              << cfg.faults.timeout_scale << "\n";
    faults.Print();
  }

  // QoS table only when a non-default queue policy is active, mirroring the
  // fault table's gating: default runs print exactly what they always did.
  if (cfg.platform.qos.queue != "fifo" ||
      cfg.platform.qos.admission != "none") {
    metrics::Table qos({"system", "rejected", "queue-full", "rate-limited",
                        "infeasible", "mean depth", "jain", "worst-fn p99"});
    for (const auto& r : results) {
      const metrics::Recorder& rec = *r.recorder;
      qos.AddRow(
          {r.system, std::to_string(rec.rejected_requests()),
           std::to_string(rec.rejected_by(sim::RejectCause::kQueueFull)),
           std::to_string(rec.rejected_by(sim::RejectCause::kRateLimited)),
           std::to_string(
               rec.rejected_by(sim::RejectCause::kDeadlineInfeasible)),
           metrics::Fmt(rec.MeanQueueDepth(), 2),
           metrics::Fmt(rec.JainFairnessIndex(), 3),
           metrics::Fmt(rec.WorstFunctionP99(), 2) + "s"});
    }
    std::cout << "qos: queue " << cfg.platform.qos.queue << ", admission "
              << cfg.platform.qos.admission << "\n";
    qos.Print();
  }

  if (args.Has("json")) {
    const std::string path = args.GetString("json", "");
    std::ofstream out(path);
    FFS_CHECK_MSG(out.good(), "cannot write " + path);
    out << harness::ResultsToJson(results) << "\n";
    std::cout << "JSON summary written to " << path << "\n";
  }

  if (args.Has("csv")) {
    const std::string path = args.GetString("csv", "");
    std::ofstream out(path);
    FFS_CHECK_MSG(out.good(), "cannot write " + path);
    out << "system,request,function,arrival_us,deadline_us,completion_us,"
           "queue_us,load_us,exec_us,transfer_us,slo_hit\n";
    for (const auto& r : results) {
      for (const auto& rec : r.recorder->records()) {
        out << r.system << "," << rec.id.value << "," << rec.fn.value << ","
            << rec.arrival << "," << rec.deadline << "," << rec.completion
            << "," << rec.queue_time << "," << rec.load_time << ","
            << rec.exec_time << "," << rec.transfer_time << ","
            << (rec.SloHit() ? 1 : 0) << "\n";
      }
    }
    std::cout << "per-request records written to " << path << "\n";
  }
  return 0;
}

// `sweep`: declarative grid over tier x load x fault-rate x seed x system,
// executed by the parallel sweep engine. Cells print (and land in the JSON
// artifact) in grid order regardless of --jobs, so output is reproducible.
int CmdSweep(const CliArgs& args) {
  harness::SweepSpec spec;
  spec.base.num_nodes = args.GetCount("nodes", 2);
  spec.base.gpus_per_node = args.GetCount("gpus", 8);
  spec.base.duration = Seconds(args.GetPositive("duration", 150.0));
  spec.base.seed = args.Get<std::uint64_t>("seed", 1234);
  spec.base.platform.qos.queue = args.GetString("queue", "fifo");
  spec.base.platform.qos.admission = args.GetString("admission", "none");

  const std::string systems = args.GetString("systems", "all");
  if (systems == "all") {
    spec.systems = harness::kComparisonSystems;
  } else {
    for (const auto& s : args.GetList<std::string>("systems")) {
      spec.systems.push_back(harness::ParseSystem(s));
    }
  }
  for (const auto& t : args.GetList<std::string>("tiers", "medium")) {
    spec.tiers.push_back(ParseTier(t));
  }
  spec.seeds = args.GetList<std::uint64_t>("seeds");
  spec.load_factors = args.GetNonNegativeList("loads");
  spec.fault_rates = args.GetNonNegativeList("fault-rates");
  FFS_CHECK_MSG(!spec.systems.empty() && !spec.tiers.empty(),
                "sweep needs at least one system and one tier");

  const harness::SweepOutcome sweep =
      harness::RunSweep(spec, ParseJobs(args));

  metrics::Table table({"tier", "load", "faults", "seed", "system",
                        "throughput", "SLO hit", "P95"});
  for (const auto& cell : sweep.cells) {
    const auto& r = cell.result;
    table.AddRow({r.tier,
                  cell.point.load_factor > 0.0
                      ? metrics::Fmt(cell.point.load_factor, 2)
                      : std::string("tier"),
                  metrics::Fmt(cell.point.fault_rate, 2),
                  std::to_string(cell.point.seed), r.system,
                  metrics::Fmt(r.throughput_rps, 1) + " rps",
                  metrics::FmtPercent(r.recorder->SloHitRate()),
                  metrics::Fmt(r.recorder->LatencyPercentile(0.95), 2) +
                      "s"});
  }
  std::cout << sweep.cells.size() << " cells, jobs=" << sweep.jobs << ", "
            << metrics::Fmt(sweep.wall_seconds, 2) << "s wall ("
            << metrics::Fmt(sweep.Speedup(), 2) << "x vs serial cell time)\n";
  table.Print();

  const bool timing = args.GetInt("no-timing", 0) == 0;
  const std::string path =
      args.Has("out") ? args.GetString("out", "")
                      : harness::SweepOutPath("BENCH_sweep.json");
  harness::WriteSweepJsonFile(sweep, path, timing);
  std::cout << "sweep artifact written to " << path << "\n";
  return 0;
}

int CmdTrace(const CliArgs& args) {
  if (args.Has("azure")) {
    // Convert a slice of the real Azure Functions dataset into our trace
    // CSV: fluidfaas trace --azure dNN.csv --functions 4 --minutes 5
    //        --scale 0.05 --out trace.csv
    std::ifstream in(args.GetString("azure", ""));
    FFS_CHECK_MSG(in.good(), "cannot open Azure dataset file");
    auto rows = trace::LoadAzureDataset(in);
    trace::AzureExpandOptions opt;
    opt.num_functions = static_cast<int>(args.GetInt("functions", 4));
    opt.minutes = static_cast<int>(args.GetInt("minutes", 5));
    opt.count_scale = args.GetDouble("scale", 1.0);
    opt.seed = args.Get<std::uint64_t>("seed", 1234);
    const trace::Trace t = trace::ExpandAzureDataset(rows, opt);
    const std::string path = args.GetString("out", "");
    if (path.empty()) {
      trace::SaveCsv(t, std::cout);
    } else {
      std::ofstream out(path);
      FFS_CHECK_MSG(out.good(), "cannot write " + path);
      trace::SaveCsv(t, out);
      std::cout << rows.size() << " dataset functions -> top "
                << opt.num_functions << ", " << t.size()
                << " invocations written to " << path << "\n";
    }
    return 0;
  }
  trace::AzureLikeParams p;
  p.total_rps = args.GetDouble("rps", 20.0);
  p.duration = Seconds(args.GetPositive("duration", 300.0));
  p.seed = args.Get<std::uint64_t>("seed", 1234);
  const int functions = static_cast<int>(args.GetInt("functions", 4));
  const trace::Trace t = trace::AzureLikeTrace(functions, p);

  const std::string path = args.GetString("out", "");
  if (path.empty()) {
    trace::SaveCsv(t, std::cout);
  } else {
    std::ofstream out(path);
    FFS_CHECK_MSG(out.good(), "cannot write " + path);
    trace::SaveCsv(t, out);
    std::cout << t.size() << " invocations ("
              << metrics::Fmt(trace::MeanRps(t, p.duration), 1)
              << " rps mean) written to " << path << "\n";
  }
  return 0;
}

int CmdPlan(const CliArgs& args) {
  model::AppDag dag;
  if (args.Has("llm")) {
    const std::string size = args.GetString("llm", "7b");
    if (size == "7b") dag = model::BuildLlmApp(model::LlmSize::k7B);
    else if (size == "13b") dag = model::BuildLlmApp(model::LlmSize::k13B);
    else if (size == "34b") dag = model::BuildLlmApp(model::LlmSize::k34B);
    else throw FfsError("unknown llm size: " + size);
  } else {
    const int app = static_cast<int>(args.GetInt("app", 0));
    const std::string v = args.GetString("variant", "medium");
    model::Variant variant = model::Variant::kMedium;
    if (v == "small") variant = model::Variant::kSmall;
    else if (v == "large") variant = model::Variant::kLarge;
    else if (v != "medium") throw FfsError("unknown variant: " + v);
    dag = model::BuildApp(app, variant);
  }
  const int stages = static_cast<int>(args.GetInt("stages", 4));

  std::cout << dag.name() << ": " << dag.size() << " components, "
            << metrics::Fmt(static_cast<double>(dag.TotalMemory()) / kGiB, 1)
            << " GB\n";
  const auto mono = core::MinMonolithicProfile(dag);
  const auto piped = core::MinPipelinedProfile(dag, stages);
  std::cout << "monolithic minimum: " << (mono ? gpu::Name(*mono) : "NONE")
            << ", pipelined minimum: " << (piped ? gpu::Name(*piped) : "NONE")
            << "\n\nranked candidates (Eq. 1):\n";
  for (const auto& c : core::EnumerateRankedPipelines(dag, stages)) {
    std::cout << "  " << core::ToString(c) << "\n";
  }
  return 0;
}

int CmdPartitions() {
  const auto parts = gpu::EnumerateMaximalPartitions();
  std::cout << parts.size()
            << " maximal A100 MIG configurations (placement-distinct):\n";
  for (const auto& p : parts) {
    std::cout << "  " << p.ToString() << "  (" << p.total_gpcs() << " GPCs, "
              << p.total_memory() / kGiB << " GB)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") {
      return CmdRun(CliArgs(argc, argv, 2,
                            {"tier", "system", "nodes", "gpus", "duration",
                             "load", "seed", "partition", "csv", "trace",
                             "json", "trace-out", "fault-rate", "fault-seed",
                             "mttr", "timeout-scale", "queue", "admission",
                             "rate", "queue-cap", "jobs"}));
    }
    if (cmd == "sweep") {
      return CmdSweep(CliArgs(argc, argv, 2,
                              {"systems", "tiers", "seeds", "loads",
                               "fault-rates", "nodes", "gpus", "duration",
                               "seed", "queue", "admission", "jobs", "out",
                               "no-timing"}));
    }
    if (cmd == "trace") {
      return CmdTrace(CliArgs(argc, argv, 2,
                              {"functions", "rps", "duration", "seed",
                               "out", "azure", "minutes", "scale"}));
    }
    if (cmd == "plan") {
      return CmdPlan(
          CliArgs(argc, argv, 2, {"app", "variant", "llm", "stages"}));
    }
    if (cmd == "partitions") {
      return CmdPartitions();
    }
    return Usage();
  } catch (const FfsError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
