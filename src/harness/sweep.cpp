#include "harness/sweep.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "harness/json_report.h"
#include "harness/run_context.h"

namespace fluidfaas::harness {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Run fn(0..n-1) on `jobs` workers pulling indices from a shared counter.
/// Rethrows the first exception any worker raised, after all join.
void ParallelFor(std::size_t n, int jobs,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const int spawn = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), n));
  pool.reserve(static_cast<std::size_t>(spawn));
  for (int t = 0; t < spawn; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

int ClampJobs(int jobs, std::size_t cells) {
  if (jobs <= 0) jobs = DefaultJobs();
  if (cells > 0 && static_cast<std::size_t>(jobs) > cells) {
    jobs = static_cast<int>(cells);
  }
  return jobs < 1 ? 1 : jobs;
}

}  // namespace

int DefaultJobs() {
  if (const char* env = std::getenv("FFS_JOBS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (errno != 0 || end == env || *end != '\0' || v < 1 ||
        v > 4096) {
      throw FfsError(std::string("FFS_JOBS must be a positive integer "
                                 "(1..4096), got: \"") +
                     env + "\"");
    }
    return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::size_t SweepSpec::size() const {
  auto dim = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  return dim(tiers.size()) * dim(load_factors.size()) *
         dim(fault_rates.size()) * dim(variants.size()) * dim(seeds.size()) *
         dim(systems.size());
}

std::vector<SweepPoint> SweepSpec::Points() const {
  const std::vector<trace::WorkloadTier> ts =
      tiers.empty() ? std::vector<trace::WorkloadTier>{base.tier} : tiers;
  const std::vector<double> ls =
      load_factors.empty() ? std::vector<double>{base.load_factor}
                           : load_factors;
  const std::vector<double> fs =
      fault_rates.empty() ? std::vector<double>{base.faults.rate}
                          : fault_rates;
  const std::vector<std::uint64_t> ss =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
  const std::vector<SystemKind> ks =
      systems.empty() ? std::vector<SystemKind>{base.system} : systems;
  const std::size_t vs = variants.empty() ? 1 : variants.size();
  for (const SweepVariant& v : variants) {
    FFS_CHECK_MSG(!v.label.empty(), "sweep variants need a non-empty label");
  }

  std::vector<SweepPoint> points;
  points.reserve(size());
  std::size_t index = 0;
  for (trace::WorkloadTier tier : ts) {
    for (double load : ls) {
      for (double rate : fs) {
        for (std::size_t v = 0; v < vs; ++v) {
          for (std::uint64_t seed : ss) {
            for (SystemKind system : ks) {
              SweepPoint p;
              p.index = index++;
              p.system = system;
              p.tier = tier;
              p.seed = seed;
              p.load_factor = load;
              p.fault_rate = rate;
              if (!variants.empty()) p.variant = variants[v].label;
              p.variant_index = v;
              points.push_back(std::move(p));
            }
          }
        }
      }
    }
  }
  return points;
}

ExperimentConfig SweepSpec::MakeConfig(const SweepPoint& point) const {
  ExperimentConfig cfg = base;
  cfg.system = point.system;
  cfg.tier = point.tier;
  cfg.seed = point.seed;
  cfg.load_factor = point.load_factor;
  cfg.faults.rate = point.fault_rate;
  if (!variants.empty() && variants[point.variant_index].apply) {
    variants[point.variant_index].apply(cfg);
  }
  return cfg;
}

SweepOutcome RunSweep(const SweepSpec& spec, int jobs) {
  const std::vector<SweepPoint> points = spec.Points();
  SweepOutcome out;
  out.jobs = ClampJobs(jobs, points.size());
  out.cells.resize(points.size());

  // Register once up front so no worker races on (or pays for) first-use
  // initialization of the scheduler registry.
  EnsureBuiltinSchedulersRegistered();

  const auto t0 = Clock::now();
  ParallelFor(points.size(), out.jobs, [&](std::size_t i) {
    const auto c0 = Clock::now();
    SweepCell& cell = out.cells[i];  // by grid index, not completion order
    cell.point = points[i];
    RunContext ctx(spec.MakeConfig(points[i]));
    cell.result = ctx.Run();
    cell.seconds = SecondsSince(c0);
  });
  out.wall_seconds = SecondsSince(t0);
  for (const SweepCell& c : out.cells) out.cell_seconds_total += c.seconds;
  return out;
}

void WriteSweepJson(const SweepOutcome& outcome, std::ostream& os,
                    bool include_timing) {
  os << "{\n\"schema\": \"fluidfaas.sweep.v1\",\n\"cells\": [";
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    const SweepCell& c = outcome.cells[i];
    JsonWriter w;
    w.BeginObject();
    w.Key("index").Value(c.point.index);
    w.Key("system").Value(Name(c.point.system));
    w.Key("tier").Value(trace::Name(c.point.tier));
    w.Key("seed").Value(static_cast<std::int64_t>(c.point.seed));
    w.Key("load_factor").Value(c.point.load_factor);
    w.Key("fault_rate").Value(c.point.fault_rate);
    if (!c.point.variant.empty()) w.Key("variant").Value(c.point.variant);
    w.Key("result").Raw(ResultToJson(c.result));
    w.EndObject();
    os << (i == 0 ? "\n" : ",\n") << w.Take();
  }
  os << "\n]";
  if (include_timing) {
    JsonWriter w;
    w.BeginObject();
    w.Key("jobs").Value(outcome.jobs);
    w.Key("wall_seconds").Value(outcome.wall_seconds);
    w.Key("cell_seconds_total").Value(outcome.cell_seconds_total);
    w.Key("speedup").Value(outcome.Speedup());
    w.Key("cell_seconds").BeginArray();
    for (const SweepCell& c : outcome.cells) w.Value(c.seconds);
    w.EndArray();
    w.EndObject();
    os << ",\n\"timing\": " << w.Take();
  }
  os << "\n}\n";
}

void WriteSweepJsonFile(const SweepOutcome& outcome, const std::string& path,
                        bool include_timing) {
  std::ofstream out(path);
  if (out) WriteSweepJson(outcome, out, include_timing);
  if (!out) throw FfsError("cannot write sweep artifact: " + path);
}

std::string SweepOutPath(const std::string& fallback) {
  if (const char* env = std::getenv("FFS_SWEEP_OUT")) {
    if (*env != '\0') return env;
  }
  return fallback;
}

}  // namespace fluidfaas::harness
