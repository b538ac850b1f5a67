// Invocation traces.
//
// The paper drives its evaluation with invocation frequencies/intervals from
// the Azure Functions production traces (Shahrad et al., ATC '20). Those
// traces are not redistributable here, so AzureLikeTrace synthesizes
// arrivals with the published characteristics the schedulers are sensitive
// to: heavy-tailed per-function popularity, bursty on/off rate modulation,
// and Poisson micro-structure. A CSV loader accepts the real thing when
// available ("time_us,function_id" rows).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace fluidfaas::trace {

struct Invocation {
  SimTime time;
  FunctionId fn;
  bool operator==(const Invocation&) const = default;
};

using Trace = std::vector<Invocation>;

/// Non-homogeneous Poisson arrivals for one function via thinning:
/// `rate_fn(t)` gives the instantaneous rate (req/s) and must never exceed
/// `rate_cap`.
template <typename RateFn>
std::vector<SimTime> PoissonArrivals(RateFn&& rate_fn, double rate_cap,
                                     SimDuration duration, Rng& rng) {
  std::vector<SimTime> out;
  if (rate_cap <= 0.0) return out;
  double t = 0.0;
  const double end = ToSeconds(duration);
  while (true) {
    t += rng.Exponential(rate_cap);
    if (t >= end) break;
    if (rng.NextDouble() < rate_fn(t) / rate_cap) {
      out.push_back(Seconds(t));
    }
  }
  return out;
}

struct AzureLikeParams {
  /// Aggregate mean arrival rate across all functions (req/s).
  double total_rps = 10.0;
  SimDuration duration = Seconds(300);
  std::uint64_t seed = 1234;
};

/// Synthesize a trace over `num_functions` functions. The realized mean
/// aggregate rate converges to total_rps; burst structure (functions
/// alternate normal and burst periods, trace.cpp's constants) rides on top.
Trace AzureLikeTrace(int num_functions, const AzureLikeParams& params);

/// Per-function share of the aggregate rate used by AzureLikeTrace with
/// the same seed (normalized Pareto draws) — exposed for tests and for
/// capacity planning in the workload builder, so both read one shape.
std::vector<double> PopularityShares(int num_functions, std::uint64_t seed);

/// CSV round-trip: "time_us,function_id" per line, header optional.
Trace LoadCsv(std::istream& in);
void SaveCsv(const Trace& trace, std::ostream& out);

/// Sort by (time, fn) — generators emit sorted traces; the loader sorts.
void SortTrace(Trace& trace);

/// Mean request rate of the trace over [0, duration].
double MeanRps(const Trace& trace, SimDuration duration);

}  // namespace fluidfaas::trace
