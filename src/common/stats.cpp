#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fluidfaas {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  if (count_ == 0 || mean_ == 0.0) return 0.0;
  return stddev() / mean_;
}

double CoefficientOfVariation(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) s.Add(x);
  return s.cv();
}

double Percentile(std::vector<double> xs, double q) {
  FFS_CHECK(!xs.empty());
  FFS_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

std::vector<double> Percentiles(std::vector<double> xs,
                                const std::vector<double>& qs) {
  FFS_CHECK(!xs.empty());
  std::sort(xs.begin(), xs.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) {
    FFS_CHECK(q >= 0.0 && q <= 1.0);
    const double rank = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    out.push_back(xs[lo] + frac * (xs[hi] - xs[lo]));
  }
  return out;
}

void TimeWeightedSignal::Record(SimTime t, double value) {
  FFS_CHECK_MSG(points_.empty() || t >= points_.back().first,
                "TimeWeightedSignal records must be time-ordered");
  if (!points_.empty() && points_.back().first == t) {
    points_.back().second = value;  // last write at an instant wins
    return;
  }
  if (!points_.empty() && points_.back().second == value) {
    return;  // no change; keep the series compact
  }
  points_.emplace_back(t, value);
}

void TimeWeightedSignal::Close(SimTime end) {
  if (points_.empty()) {
    points_.emplace_back(end, 0.0);
    return;
  }
  FFS_CHECK(end >= points_.back().first);
  if (points_.back().first != end) {
    points_.emplace_back(end, points_.back().second);
  }
}

double TimeWeightedSignal::ValueAt(SimTime t) const {
  if (points_.empty() || t < points_.front().first) return 0.0;
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](SimTime lhs, const auto& p) { return lhs < p.first; });
  return std::prev(it)->second;
}

double TimeWeightedSignal::MeanOver(SimTime begin, SimTime end) const {
  if (end <= begin || points_.empty()) return 0.0;
  double integral = 0.0;
  SimTime cursor = begin;
  double value = ValueAt(begin);
  auto it = std::upper_bound(
      points_.begin(), points_.end(), begin,
      [](SimTime lhs, const auto& p) { return lhs < p.first; });
  for (; it != points_.end() && it->first < end; ++it) {
    integral += value * static_cast<double>(it->first - cursor);
    cursor = it->first;
    value = it->second;
  }
  integral += value * static_cast<double>(end - cursor);
  return integral / static_cast<double>(end - begin);
}

double TimeWeightedSignal::FractionAtOrBelow(double threshold, SimTime begin,
                                             SimTime end) const {
  if (end <= begin) return 0.0;
  SimDuration below = 0;
  SimTime cursor = begin;
  double value = ValueAt(begin);
  auto it = std::upper_bound(
      points_.begin(), points_.end(), begin,
      [](SimTime lhs, const auto& p) { return lhs < p.first; });
  for (; it != points_.end() && it->first < end; ++it) {
    if (value <= threshold) below += it->first - cursor;
    cursor = it->first;
    value = it->second;
  }
  if (value <= threshold) below += end - cursor;
  return static_cast<double>(below) / static_cast<double>(end - begin);
}

}  // namespace fluidfaas
