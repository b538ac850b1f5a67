#include "trace/trace.h"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace fluidfaas::trace {

namespace {

/// Pareto shape for per-function popularity (smaller = heavier tail).
constexpr double kPopularityAlpha = 1.2;
/// Burst modulation: functions alternate normal/burst periods.
constexpr double kBurstMultiplier = 2.0;
constexpr double kMeanNormalS = 30.0;
constexpr double kMeanBurstS = 8.0;

}  // namespace

std::vector<double> PopularityShares(int num_functions, std::uint64_t seed) {
  FFS_CHECK(num_functions > 0);
  Rng rng(seed);
  std::vector<double> draws;
  draws.reserve(static_cast<std::size_t>(num_functions));
  for (int i = 0; i < num_functions; ++i) {
    draws.push_back(rng.Pareto(1.0, kPopularityAlpha));
  }
  const double sum = std::accumulate(draws.begin(), draws.end(), 0.0);
  for (double& d : draws) d /= sum;
  return draws;
}

Trace AzureLikeTrace(int num_functions, const AzureLikeParams& p) {
  const std::vector<double> shares = PopularityShares(num_functions, p.seed);
  Rng master(p.seed);

  // Normalize so the long-run mean multiplier of the burst process is 1.
  const double mean_mult =
      (kMeanNormalS * 1.0 + kMeanBurstS * kBurstMultiplier) /
      (kMeanNormalS + kMeanBurstS);

  Trace trace;
  for (int f = 0; f < num_functions; ++f) {
    Rng rng = master.Fork();
    const double base_rate =
        p.total_rps * shares[static_cast<std::size_t>(f)] / mean_mult;

    // Pre-draw the on/off burst timeline for this function.
    struct Phase {
      double until_s;
      double mult;
    };
    std::vector<Phase> phases;
    double t = 0.0;
    bool burst = rng.Chance(0.2);  // some functions start bursting
    while (t < ToSeconds(p.duration)) {
      const double len = burst ? rng.Exponential(1.0 / kMeanBurstS)
                               : rng.Exponential(1.0 / kMeanNormalS);
      t += len;
      phases.push_back({t, burst ? kBurstMultiplier : 1.0});
      burst = !burst;
    }
    auto rate_at = [&](double ts) {
      for (const Phase& ph : phases) {
        if (ts < ph.until_s) return base_rate * ph.mult;
      }
      return base_rate;
    };

    auto arrivals = PoissonArrivals(rate_at, base_rate * kBurstMultiplier,
                                    p.duration, rng);
    for (SimTime at : arrivals) {
      trace.push_back(Invocation{at, FunctionId(f)});
    }
  }
  SortTrace(trace);
  return trace;
}

void SortTrace(Trace& trace) {
  std::sort(trace.begin(), trace.end(),
            [](const Invocation& a, const Invocation& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.fn < b.fn;
            });
}

Trace LoadCsv(std::istream& in) {
  Trace trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Skip a header line.
    if (!line.empty() && !std::isdigit(static_cast<unsigned char>(line[0]))) {
      continue;
    }
    std::stringstream ss(line);
    std::string time_tok, fn_tok;
    FFS_CHECK_MSG(std::getline(ss, time_tok, ',') &&
                      std::getline(ss, fn_tok, ','),
                  "malformed trace line: " + line);
    trace.push_back(Invocation{static_cast<SimTime>(std::stoll(time_tok)),
                               FunctionId(std::stoi(fn_tok))});
  }
  SortTrace(trace);
  return trace;
}

void SaveCsv(const Trace& trace, std::ostream& out) {
  out << "time_us,function_id\n";
  for (const Invocation& inv : trace) {
    out << inv.time << "," << inv.fn.value << "\n";
  }
}

double MeanRps(const Trace& trace, SimDuration duration) {
  if (duration <= 0) return 0.0;
  return static_cast<double>(trace.size()) / ToSeconds(duration);
}

}  // namespace fluidfaas::trace
