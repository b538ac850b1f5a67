// Summary-statistics utilities used throughout the metrics pipeline:
//  * RunningStats    — streaming mean/variance (Welford), min/max, CV.
//  * Percentiles     — exact quantiles over a stored sample vector.
//  * TimeWeightedMean— integral of a piecewise-constant signal over time,
//                      used for utilization timelines.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace fluidfaas {

/// Streaming mean / variance / extremes via Welford's algorithm.
/// Numerically stable; O(1) per observation.
class RunningStats {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Coefficient of variation: stddev / mean (Eq. 1 of the paper).
  /// Returns 0 for empty or zero-mean series.
  double cv() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Coefficient of variation of a sample (population stddev / mean).
double CoefficientOfVariation(const std::vector<double>& xs);

/// Exact quantile with linear interpolation between closest ranks.
/// `q` in [0, 1]. The input is copied and sorted; O(n log n).
double Percentile(std::vector<double> xs, double q);

/// Several quantiles of the same sample, sorting only once.
std::vector<double> Percentiles(std::vector<double> xs,
                                const std::vector<double>& qs);

/// Integrates a piecewise-constant, right-continuous signal over simulated
/// time. Record(t, v) says "the value becomes v at time t"; the mean over
/// [t0, t_last] and the fraction of time spent at/below thresholds are then
/// exact.
class TimeWeightedSignal {
 public:
  void Record(SimTime t, double value);

  /// Finalize at `end`, extending the last value to that point.
  void Close(SimTime end);

  double MeanOver(SimTime begin, SimTime end) const;

  /// Fraction of [begin, end] during which the value was <= threshold.
  double FractionAtOrBelow(double threshold, SimTime begin, SimTime end) const;

 private:
  /// on_piece(value, duration) for each constant piece over [begin, end],
  /// in time order; the value before the first point is 0.
  template <typename OnPiece>
  void Walk(SimTime begin, SimTime end, OnPiece&& on_piece) const;

  std::vector<std::pair<SimTime, double>> points_;  // (time, value), sorted
};

}  // namespace fluidfaas
