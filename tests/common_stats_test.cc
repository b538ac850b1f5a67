#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace fluidfaas {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(RunningStatsTest, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 4.0, 2.5, -3.0, 7.5};
  double sum = 0;
  for (double x : xs) {
    s.Add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size();
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(CvTest, PaperEquationOneExample) {
  // CV = std / mean (population), Eq. 1.
  const std::vector<double> ts = {100.0, 100.0, 100.0};
  EXPECT_DOUBLE_EQ(CoefficientOfVariation(ts), 0.0);
  const std::vector<double> ts2 = {50.0, 150.0};
  // mean 100, population std 50 -> CV 0.5.
  EXPECT_NEAR(CoefficientOfVariation(ts2), 0.5, 1e-12);
}

TEST(PercentileTest, ExactRanksAndInterpolation) {
  std::vector<double> xs = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.125), 15.0);  // interpolated
}

TEST(PercentileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.95), 7.0);
}

TEST(PercentileTest, RejectsEmptyAndBadQ) {
  EXPECT_THROW(Percentile({}, 0.5), FfsError);
  EXPECT_THROW(Percentile({1.0}, -0.1), FfsError);
  EXPECT_THROW(Percentile({1.0}, 1.1), FfsError);
}

TEST(PercentilesTest, MatchesSingleCalls) {
  std::vector<double> xs = {5, 1, 9, 3, 7, 2, 8};
  auto many = Percentiles(xs, {0.1, 0.5, 0.9});
  EXPECT_DOUBLE_EQ(many[0], Percentile(xs, 0.1));
  EXPECT_DOUBLE_EQ(many[1], Percentile(xs, 0.5));
  EXPECT_DOUBLE_EQ(many[2], Percentile(xs, 0.9));
}

TEST(TimeWeightedSignalTest, MeanOfPiecewiseConstant) {
  TimeWeightedSignal s;
  s.Record(0, 1.0);
  s.Record(Seconds(10), 3.0);
  s.Close(Seconds(20));
  // 10 s at 1.0 then 10 s at 3.0 -> mean 2.0.
  EXPECT_NEAR(s.MeanOver(0, Seconds(20)), 2.0, 1e-9);
  // Sub-windows.
  EXPECT_NEAR(s.MeanOver(0, Seconds(10)), 1.0, 1e-9);
  EXPECT_NEAR(s.MeanOver(Seconds(10), Seconds(20)), 3.0, 1e-9);
  EXPECT_NEAR(s.MeanOver(Seconds(5), Seconds(15)), 2.0, 1e-9);
}

TEST(TimeWeightedSignalTest, WindowsStartingBeforeOrInsideAPiece) {
  TimeWeightedSignal s;
  s.Record(Seconds(1), 5.0);
  s.Record(Seconds(2), 7.0);
  s.Close(Seconds(3));
  EXPECT_DOUBLE_EQ(s.MeanOver(0, Seconds(1)), 0.0);  // before first record
  EXPECT_DOUBLE_EQ(s.MeanOver(Seconds(1), Seconds(2)), 5.0);
  EXPECT_DOUBLE_EQ(s.MeanOver(Seconds(1) + 1, Seconds(2)), 5.0);
  EXPECT_DOUBLE_EQ(s.MeanOver(Seconds(2), Seconds(3)), 7.0);
  EXPECT_DOUBLE_EQ(s.FractionAtOrBelow(5.0, Seconds(1) + 1, Seconds(3)),
                   static_cast<double>(Seconds(1) - 1) /
                       static_cast<double>(Seconds(2) - 1));
}

TEST(TimeWeightedSignalTest, FractionAtOrBelow) {
  TimeWeightedSignal s;
  s.Record(0, 0.0);
  s.Record(Seconds(4), 10.0);
  s.Close(Seconds(10));
  // 4 s at 0, 6 s at 10.
  EXPECT_NEAR(s.FractionAtOrBelow(5.0, 0, Seconds(10)), 0.4, 1e-9);
  EXPECT_NEAR(s.FractionAtOrBelow(10.0, 0, Seconds(10)), 1.0, 1e-9);
}

TEST(TimeWeightedSignalTest, SameInstantLastWriteWins) {
  TimeWeightedSignal s;
  s.Record(Seconds(1), 2.0);
  s.Record(Seconds(1), 5.0);
  s.Close(Seconds(2));
  EXPECT_DOUBLE_EQ(s.MeanOver(Seconds(1), Seconds(2)), 5.0);
}

TEST(TimeWeightedSignalTest, RejectsOutOfOrderRecords) {
  TimeWeightedSignal s;
  s.Record(Seconds(2), 1.0);
  EXPECT_THROW(s.Record(Seconds(1), 2.0), FfsError);
}

}  // namespace
}  // namespace fluidfaas
