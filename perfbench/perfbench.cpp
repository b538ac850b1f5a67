// The simulator benchmark: host time and modelled SLO of the five
// schedulers on one workload, or (--trace 1) the per-layer metrics of a
// traced run of the same cells. perfbench/README.md documents the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
//   ffs_perfbench --workload heavy-paper --seed 1234 --seconds 20 --trace 0
//
// A cell is one simulated run of one scheduler on one replica of the
// workload's trace. The five schedulers run one after another in this
// process, with no worker threads. The last line of stdout is one JSON
// object: {"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cells.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gpu/cluster.h"
#include "harness/run_context.h"
#include "trace/trace.h"
#include "trace/workload.h"
#include "tracer.h"

namespace perfbench {
namespace {

namespace ffs = ::fluidfaas;
namespace gpu = ::fluidfaas::gpu;
namespace harness = ::fluidfaas::harness;
namespace sim = ::fluidfaas::sim;
namespace trace = ::fluidfaas::trace;

// ---------------------------------------------------------------------------
// Workloads, schedulers and inputs

struct WorkloadSpec {
  const char* name;
  trace::WorkloadTier tier;
  int nodes;
  double load_factor;  // 0 = the tier's default
  const char* queue;
  const char* admission;
  double fault_rate;     // faults per simulated second
  double timeout_scale;  // × SLO; 0 = no enforcement timeout
  double horizon_s;      // simulated trace length
  int replicas;          // jittered replays of the trace per scheduler
};

// P1 partition and 8 GPUs per node everywhere (the paper's testbed).
constexpr WorkloadSpec kWorkloads[] = {
    {"heavy-paper", trace::WorkloadTier::kHeavy, 2, 0.0, "fifo", "none", 0.0,
     0.0, 300.0, 3},
    {"heavy-4x", trace::WorkloadTier::kHeavy, 8, 0.0, "fifo", "none", 0.0, 0.0,
     60.0, 1},
    {"light-steady", trace::WorkloadTier::kLight, 2, 0.0, "fifo", "none", 0.0,
     0.0, 1200.0, 1},
    {"overload-qos", trace::WorkloadTier::kMedium, 2, 1.04, "fair", "shed",
     0.05, 4.0, 300.0, 8},
};

struct System {
  const char* key;  // metric-name suffix
  harness::SystemKind kind;
  const char* module;  // the module that implements its routing
};

constexpr System kSystems[] = {
    {"fluidfaas", harness::SystemKind::kFluidFaas, "core"},
    {"fluidfaas-dist", harness::SystemKind::kFluidFaasDistributed, "core"},
    {"esg", harness::SystemKind::kEsg, "baselines"},
    {"infless", harness::SystemKind::kInfless, "baselines"},
    {"repartition", harness::SystemKind::kRepartition, "baselines"},
};
constexpr std::size_t kNumSystems = std::size(kSystems);

// Every workload replays the trace trace::MakeWorkload synthesises for the
// paper's seed, and its fault plan is the one that seed derives. --seed
// delays each arrival of each replica by a uniform draw below kJitterUs.
// The overloaded tiers are chaotic: redrawing the arrivals per seed moves a
// scheduler's hit rate by 30-140% between seeds, and even this jitter moves
// a single run's by up to ~17%, hence the pooled replicas.
constexpr std::uint64_t kPaperSeed = 1234;
constexpr double kJitterUs = 1000.0;

/// The workload's replica traces for `seed`. Replica 0 of the paper's seed
/// is the unjittered trace, so it matches `fluidfaas run --seed 1234`.
std::vector<trace::Trace> MakeReplicas(const WorkloadSpec& w,
                                       std::uint64_t seed) {
  const gpu::Cluster cluster(std::vector<std::vector<gpu::MigPartition>>(
      static_cast<std::size_t>(w.nodes), gpu::PartitionSchemeP1(8)));
  trace::WorkloadParams wp;
  wp.duration = ffs::Seconds(w.horizon_s);
  wp.load_factor = w.load_factor;
  wp.seed = kPaperSeed;
  const trace::Trace base = trace::MakeWorkload(w.tier, cluster, wp).trace;
  ffs::Rng master(seed);
  std::vector<trace::Trace> replicas;
  for (int r = 0; r < w.replicas; ++r) {
    ffs::Rng rng = master.Fork();
    trace::Trace t = base;
    if (seed != kPaperSeed || r > 0) {
      for (trace::Invocation& inv : t) {
        inv.time += static_cast<ffs::SimTime>(rng.NextDouble() * kJitterUs);
      }
      trace::SortTrace(t);
    }
    replicas.push_back(std::move(t));
  }
  return replicas;
}

struct CellSpec {
  std::size_t sys;  // index into kSystems
  std::string label;
  harness::ExperimentConfig config;
};

/// Cells in run order: every replica of each scheduler, scheduler by
/// scheduler.
std::vector<CellSpec> MakeCells(const WorkloadSpec& w,
                                const std::vector<trace::Trace>& replicas) {
  std::vector<CellSpec> cells;
  for (std::size_t s = 0; s < kNumSystems; ++s) {
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      harness::ExperimentConfig c;
      c.system = kSystems[s].kind;
      c.tier = w.tier;
      c.num_nodes = w.nodes;
      c.gpus_per_node = 8;
      c.duration = ffs::Seconds(w.horizon_s);
      c.load_factor = w.load_factor;
      c.seed = kPaperSeed;
      c.custom_trace = replicas[r];
      c.platform.qos.queue = w.queue;
      c.platform.qos.admission = w.admission;
      c.faults.rate = w.fault_rate;
      c.faults.timeout_scale = w.timeout_scale;
      cells.push_back(CellSpec{
          s, std::string(kSystems[s].key) + "#" + std::to_string(r),
          std::move(c)});
    }
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Results

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  double value;
  std::string unit;
};

class Results {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Attempt("metric " + name, "not a finite number");
      value = 0.0;
    }
    metrics_[name] = Metric{value, unit};
  }

  /// Count one operation (a cell); a failed one is reported on stdout.
  void Attempt(const std::string& what, const std::string& error) {
    ++attempted_;
    if (!error.empty()) {
      ++failed_;
      std::cout << "FAILED " << what << ": " << error << "\n";
    }
  }

  void Print() const {
    std::ostringstream o;
    o << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char table[64];
      char full[64];
      std::snprintf(table, sizeof table, "%.6g", m.value);
      std::snprintf(full, sizeof full, "%.17g", m.value);
      std::cout << "  " << name << " = " << table << " " << m.unit << "\n";
      o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << full
        << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    o << "}}";
    std::cout << o.str() << std::endl;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

void PrintCell(const std::string& label, const RecordCheck& c,
               double wall_s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  %-17s records %6zu  completed %6zu  rejected %5zu  "
                "timed-out %4zu  abandoned %3zu  unfinished %3zu  "
                "slo %.4f  wall %.3fs  digest %016llx\n",
                label.c_str(), c.records, c.completed, c.rejected,
                c.timed_out, c.abandoned, c.unfinished,
                Ratio(double(c.slo_hits), double(c.records)), wall_s,
                static_cast<unsigned long long>(c.digest));
  std::cout << buf;
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = kPaperSeed;
  double seconds = 20.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
};

/// Whether to start another round: always until two have run, then while
/// one more round of the mean length still fits in `seconds`.
bool AnotherRound(std::size_t rounds, Clock::time_point start,
                  double seconds) {
  if (rounds < 2) return true;
  const double elapsed = SecondsSince(start);
  return elapsed + elapsed / static_cast<double>(rounds) <= seconds;
}

/// Whether a scheduler repeats its cells once more: always a first time; a
/// second time when one repetition fits in its share; then while another
/// of the mean length still fits. A cell longer than the share runs once;
/// the samples taken during it calibrate it.
bool AnotherRepetition(std::size_t reps, Clock::time_point start,
                       double share) {
  if (reps == 0) return true;
  const double elapsed = SecondsSince(start);
  const double mean = elapsed / static_cast<double>(reps);
  return reps == 1 ? mean <= share : elapsed + mean <= share;
}

// ---------------------------------------------------------------------------
// End-to-end run

/// Untraced runs, scheduler by scheduler. Each scheduler repeats its cells
/// for about an equal share of `seconds` of host time, so schedulers with
/// short cells get more repetitions; every repetition's digests must repeat
/// the first one's. Host times are calibrated medians
/// over repetitions; wall_s and setup_s sum them over the schedulers.
void MeasureEndToEnd(const std::vector<CellSpec>& cells, const Options& opt,
                     Results& out) {
  const double share = opt.seconds / static_cast<double>(kNumSystems);
  double setup_total = 0.0;
  double wall_total = 0.0;
  for (std::size_t s = 0; s < kNumSystems; ++s) {
    std::vector<double> setup;
    std::vector<double> wall;
    std::map<std::size_t, RecordCheck> first;  // by cell index
    const Clock::time_point start = Clock::now();
    for (int rep = 0; AnotherRepetition(wall.size(), start, share); ++rep) {
      double rep_setup = 0.0;
      double rep_wall = 0.0;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].sys != s) continue;
        const std::string what =
            cells[i].label + " repetition " + std::to_string(rep);
        UntracedCell cell;
        try {
          cell = RunUntraced(cells[i].config);
        } catch (const std::exception& e) {
          out.Attempt(what, e.what());
          continue;
        }
        std::string error = cell.check.error;
        if (rep == 0) {
          first[i] = cell.check;
          PrintCell(cells[i].label, cell.check, cell.wall_s);
        } else if (cell.check.digest != first[i].digest) {
          error += "digest differs from repetition 0; ";
        }
        out.Attempt(what, error);
        rep_setup += cell.setup_s;
        rep_wall += cell.wall_s;
      }
      setup.push_back(rep_setup);
      wall.push_back(rep_wall);
    }
    double hits = 0.0;
    double records = 0.0;
    for (const auto& [i, check] : first) {
      hits += double(check.slo_hits);
      records += double(check.records);
    }
    const std::string key = kSystems[s].key;
    std::cout << "  " << key << ": " << wall.size() << " repetitions\n";
    setup_total += Median(setup);
    wall_total += Median(wall);
    out.Set("wall_s." + key, Median(wall), "s");
    out.Set("slo_hit_rate." + key, Ratio(hits, records), "share");
  }
  out.Set("setup_s", setup_total, "s");
  out.Set("wall_s", wall_total, "s");
  out.Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

// ---------------------------------------------------------------------------
// Traced run

/// One untraced round, then traced rounds for about `seconds` (at least
/// two). Traced digests must equal the untraced ones and the exact
/// counters must repeat between traced rounds. Host times are calibrated
/// medians over traced rounds; counts come from the first traced round.
void MeasureLayers(const std::vector<CellSpec>& cells, const Options& opt,
                   Results& out) {
  const Clock::time_point epoch = Clock::now();
  // Spans kept for the Chrome trace, shared out over the first round.
  constexpr std::size_t kSpanBudget = 200000;
  const std::size_t span_cap = kSpanBudget / cells.size();

  std::vector<UntracedCell> untraced(cells.size());
  double untraced_wall = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    try {
      untraced[i] = RunUntraced(cells[i].config);
    } catch (const std::exception& e) {
      out.Attempt(cells[i].label + " untraced", e.what());
      continue;
    }
    untraced_wall += untraced[i].wall_s;
    PrintCell(cells[i].label, untraced[i].check, untraced[i].wall_s);
    out.Attempt(cells[i].label + " untraced", untraced[i].check.error);
  }

  std::vector<std::vector<TracedCell>> rounds;
  std::vector<SpanTrack> tracks;
  const Clock::time_point start = Clock::now();
  while (AnotherRound(rounds.size(), start, opt.seconds)) {
    const std::size_t r = rounds.size();
    rounds.emplace_back(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::string what =
          cells[i].label + " traced round " + std::to_string(r);
      TracedCell& cell = rounds[r][i];
      try {
        cell = RunTraced(cells[i].config, epoch, r == 0 ? span_cap : 0);
      } catch (const std::exception& e) {
        out.Attempt(what, e.what());
        continue;
      }
      std::string error = cell.check.error;
      if (cell.check.digest != untraced[i].check.digest) {
        error += "traced digest differs from the untraced one; ";
      }
      if (cell.events != untraced[i].events ||
          cell.publishes != untraced[i].publishes) {
        error += "traced event or publish count differs from the untraced; ";
      }
      if (r > 0 && !(cell.exact() == rounds[0][i].exact())) {
        error += "exact counters differ between traced runs; ";
      }
      out.Attempt(what, error);
      if (r == 0) tracks.push_back(SpanTrack{cells[i].label, cell.spans});
    }
  }
  std::cout << "traced rounds: " << rounds.size() << "\n";

  using CellFn = std::function<double(const TracedCell&)>;
  constexpr std::size_t kAll = kNumSystems;  // "every scheduler"
  // Sum of f over the cells of scheduler `sys` (or all) in one round.
  auto sum = [&](const std::vector<TracedCell>& round, std::size_t sys,
                 const CellFn& f) {
    double total = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (sys == kAll || cells[i].sys == sys) total += f(round[i]);
    }
    return total;
  };
  // Host times: median over traced rounds of the per-round sum.
  auto time = [&](std::size_t sys, const CellFn& f) {
    std::vector<double> xs;
    for (const auto& round : rounds) xs.push_back(sum(round, sys, f));
    return Median(xs);
  };
  // Counts: exact, so the first traced round's sum.
  auto count = [&](std::size_t sys, const CellFn& f) {
    return sum(rounds[0], sys, f);
  };
  auto incl = [](Layer l) -> CellFn {
    return [l](const TracedCell& c) {
      return c.inclusive_s[static_cast<std::size_t>(l)];
    };
  };
  auto self = [](Layer l) -> CellFn {
    return [l](const TracedCell& c) {
      return c.self_s[static_cast<std::size_t>(l)];
    };
  };
  auto records = [](const TracedCell& c) { return double(c.check.records); };

  const double requests = count(kAll, records);
  const double events =
      count(kAll, [](const TracedCell& c) { return double(c.events); });
  const double self_s = time(kAll, self(Layer::kSimRun));

  out.Set("trace.synth_s",
          time(kAll, [](const TracedCell& c) { return c.synth_s; }), "s");
  out.Set("trace.invocations", count(kAll, [](const TracedCell& c) {
            return double(c.invocations);
          }),
          "count");
  out.Set("platform.build_s",
          time(kAll, [](const TracedCell& c) { return c.build_s; }), "s");

  out.Set("sim.events", events, "count");
  out.Set("sim.events_per_request", Ratio(events, requests), "count/request");
  out.Set("sim.bus_publishes_per_request",
          Ratio(count(kAll,
                      [](const TracedCell& c) { return double(c.publishes); }),
                requests),
          "count/request");
  out.Set("sim.run_s", time(kAll, incl(Layer::kSimRun)), "s");
  out.Set("sim.self_s", self_s, "s");
  out.Set("sim.ns_per_event", Ratio(self_s * 1e9, events), "ns");

  for (std::size_t s = 0; s < kNumSystems; ++s) {
    const std::string key = kSystems[s].key;
    const std::string mod = kSystems[s].module;
    const double reqs = count(s, records);
    const double calls =
        count(s, [](const TracedCell& c) { return double(c.layer.route_calls); });
    const double route_s = time(s, incl(Layer::kRoute));
    out.Set(mod + ".route_calls_per_request." + key, Ratio(calls, reqs),
            "count/request");
    out.Set(mod + ".route_placed_ratio." + key,
            Ratio(count(s,
                        [](const TracedCell& c) {
                          return double(c.layer.route_placed);
                        }),
                  calls),
            "share");
    out.Set(mod + ".route_s." + key, route_s, "s");
    out.Set(mod + ".route_ns_per_call." + key, Ratio(route_s * 1e9, calls),
            "ns");
    out.Set(mod + ".tick_s." + key,
            time(s,
                 [](const TracedCell& c) {
                   return c.inclusive_s[static_cast<std::size_t>(Layer::kTick)] +
                          c.inclusive_s[static_cast<std::size_t>(
                              Layer::kKeepAlive)];
                 }),
            "s");
    out.Set(mod + ".on_completed_s." + key,
            time(s, incl(Layer::kOnCompleted)), "s");
    if (mod == "core") {
      out.Set("core.transitions." + key, count(s, [](const TracedCell& c) {
                return double(c.bus.transitions);
              }),
              "count");
    }
    if (key == "repartition") {
      out.Set("baselines.repartitions.repartition",
              count(s,
                    [](const TracedCell& c) {
                      return double(c.bus.repartitions);
                    }),
              "count");
    }
    out.Set("qos.drain_calls." + key, count(s, [](const TracedCell& c) {
              return double(c.layer.drain_calls);
            }),
            "count");
    out.Set("qos.offers_per_request." + key,
            Ratio(count(s,
                        [](const TracedCell& c) {
                          return double(c.layer.offers);
                        }),
                  reqs),
            "count/request");
    out.Set("qos.drain_self_s." + key, time(s, self(Layer::kDrain)), "s");
    out.Set("platform.sim_queue_s." + key,
            Ratio(count(s,
                        [](const TracedCell& c) {
                          return double(c.bus.queue_us) * 1e-6;
                        }),
                  reqs),
            "s");
    out.Set("platform.sim_load_s." + key,
            Ratio(count(s,
                        [](const TracedCell& c) {
                          return double(c.bus.load_us) * 1e-6;
                        }),
                  reqs),
            "s");
    std::vector<double> latencies;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].sys != s) continue;
      const std::vector<double>& l = rounds[0][i].latencies_s;
      latencies.insert(latencies.end(), l.begin(), l.end());
    }
    const std::vector<double> q =
        latencies.empty() ? std::vector<double>{0.0, 0.0}
                          : ffs::Percentiles(latencies, {0.50, 0.99});
    out.Set("platform.sim_p50_s." + key, q[0], "s");
    out.Set("platform.sim_p99_s." + key, q[1], "s");
    out.Set("platform.completed." + key, double(latencies.size()), "count");
  }

  out.Set("qos.mean_depth",
          Ratio(count(kAll, [](const TracedCell& c) { return c.mean_depth; }),
                double(cells.size())),
          "count");
  double max_depth = 0.0;
  for (const TracedCell& c : rounds[0]) {
    max_depth = std::max(max_depth, double(c.bus.max_depth));
  }
  out.Set("qos.max_depth", max_depth, "count");
  out.Set("qos.admission_s", time(kAll, incl(Layer::kAdmission)), "s");
  out.Set("qos.enqueues", count(kAll, [](const TracedCell& c) {
            return double(c.layer.enqueues);
          }),
          "count");
  out.Set("qos.removes", count(kAll, [](const TracedCell& c) {
            return double(c.layer.removes);
          }),
          "count");
  const std::pair<const char*, sim::RejectCause> causes[] = {
      {"queue_full", sim::RejectCause::kQueueFull},
      {"rate_limited", sim::RejectCause::kRateLimited},
      {"deadline_infeasible", sim::RejectCause::kDeadlineInfeasible}};
  for (const auto& [name, cause] : causes) {
    const auto idx = static_cast<std::size_t>(cause);
    out.Set(std::string("qos.rejected.") + name,
            count(kAll,
                  [idx](const TracedCell& c) {
                    return double(c.bus.rejected[idx]);
                  }),
            "count");
  }

  const std::pair<const char*, std::uint64_t BusCounts::*> bus_counts[] = {
      {"platform.commits", &BusCounts::commits},
      {"platform.aborts", &BusCounts::aborts},
      {"platform.spawns", &BusCounts::spawns},
      {"platform.retries", &BusCounts::retries},
      {"platform.instances_failed", &BusCounts::instances_failed},
      {"gpu.slice_binds", &BusCounts::slice_binds},
      {"gpu.slices_failed", &BusCounts::slices_failed},
      {"gpu.slice_repairs", &BusCounts::slice_repairs}};
  for (const auto& [name, field] : bus_counts) {
    out.Set(name,
            count(kAll,
                  [field](const TracedCell& c) { return double(c.bus.*field); }),
            "count");
  }

  out.Set("metrics.recorder_s", time(kAll, incl(Layer::kRecorder)), "s");
  out.Set("metrics.summary_s", time(kAll, incl(Layer::kSummary)), "s");
  out.Set("metrics.records", requests, "count");
  out.Set("harness.trace_overhead_s",
          time(kAll, [](const TracedCell& c) { return c.wall_s; }) -
              untraced_wall,
          "s");

  if (!opt.trace_out.empty()) {
    std::size_t dropped = 0;
    for (const TracedCell& c : rounds[0]) dropped += c.dropped_spans;
    if (WriteChromeTrace(opt.trace_out, tracks)) {
      std::cout << "chrome trace: " << opt.trace_out << " (" << dropped
                << " spans past the per-cell cap of " << span_cap
                << " not kept)\n";
    } else {
      out.Attempt("chrome trace", "cannot write " + opt.trace_out);
    }
  }
}

// ---------------------------------------------------------------------------
// Command line and environment

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "ffs_perfbench: " << why
            << "\nusage: ffs_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--commit SHA] "
               "[--trace-out FILE]\nworkloads:";
  for (const WorkloadSpec& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--commit") {
        opt.commit = value;
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload.empty()) Usage("--workload is required");
  if (!(opt.seconds > 0.0)) Usage("--seconds must be positive");
  return opt;
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

int Main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  const WorkloadSpec* workload = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown workload " + opt.workload);

  const std::string flags = FFS_PB_CXX_FLAGS;
  std::cout << "environment: nproc " << std::thread::hardware_concurrency()
            << ", build " << FFS_PB_BUILD_TYPE << ", flags \"" << flags
            << "\", compiler " << FFS_PB_COMPILER << ", commit " << opt.commit
            << "\n";
  // GCC defines no macro for UBSan, so the flags are checked as well.
  if (!kOptimized || kSanitized ||
      flags.find("-fsanitize") != std::string::npos) {
    std::cerr << "ffs_perfbench: refusing an unoptimised or sanitizer build\n";
    return 3;
  }
  const WorkloadSpec& w = *workload;
  std::cout << "workload " << w.name << ": tier " << trace::Name(w.tier)
            << ", " << w.nodes << " nodes x 8 GPUs (P1), load "
            << (w.load_factor > 0.0 ? std::to_string(w.load_factor)
                                    : std::string("tier default"))
            << ", queue " << w.queue << "/" << w.admission << ", faults "
            << w.fault_rate << "/s, timeout scale " << w.timeout_scale
            << ", horizon " << w.horizon_s << " s, " << w.replicas
            << " replica(s), seed " << opt.seed
            << (opt.trace ? ", traced" : "") << "\n";

  harness::EnsureBuiltinSchedulersRegistered();
  const std::vector<CellSpec> cells = MakeCells(w, MakeReplicas(w, opt.seed));
  Results results;
  if (opt.trace) {
    MeasureLayers(cells, opt, results);
  } else {
    MeasureEndToEnd(cells, opt, results);
  }
  results.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ffs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
