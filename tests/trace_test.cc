#include "trace/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/error.h"
#include "common/stats.h"

namespace fluidfaas::trace {
namespace {

TEST(PopularitySharesTest, SumToOneAndDeterministic) {
  auto a = PopularityShares(8, 42);
  auto b = PopularityShares(8, 42);
  EXPECT_EQ(a, b);
  EXPECT_NEAR(std::accumulate(a.begin(), a.end(), 0.0), 1.0, 1e-12);
  for (double s : a) EXPECT_GT(s, 0.0);
}

TEST(PopularitySharesTest, DifferentSeedsDiffer) {
  EXPECT_NE(PopularityShares(4, 1), PopularityShares(4, 2));
}

TEST(PoissonArrivalsTest, HomogeneousRateMatches) {
  Rng rng(5);
  auto arrivals =
      PoissonArrivals([](double) { return 50.0; }, 50.0, Seconds(200), rng);
  EXPECT_NEAR(static_cast<double>(arrivals.size()) / 200.0, 50.0, 2.5);
  // Sorted, in range.
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], arrivals[i - 1]);
  }
  EXPECT_GE(arrivals.front(), 0);
  EXPECT_LT(arrivals.back(), Seconds(200));
}

TEST(PoissonArrivalsTest, ThinningFollowsRateFunction) {
  Rng rng(6);
  // Rate 100 in the first half, 0 in the second.
  auto arrivals = PoissonArrivals(
      [](double t) { return t < 50.0 ? 100.0 : 0.0; }, 100.0, Seconds(100),
      rng);
  for (SimTime t : arrivals) EXPECT_LT(t, Seconds(50));
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 5000.0, 250.0);
}

TEST(PoissonArrivalsTest, ZeroCapacityYieldsNothing) {
  Rng rng(7);
  EXPECT_TRUE(
      PoissonArrivals([](double) { return 0.0; }, 0.0, Seconds(10), rng)
          .empty());
}

TEST(AzureLikeTraceTest, DeterministicForSeed) {
  AzureLikeParams p;
  p.total_rps = 20.0;
  p.duration = Seconds(60);
  p.seed = 99;
  const Trace a = AzureLikeTrace(4, p);
  EXPECT_EQ(a, AzureLikeTrace(4, p));
  p.seed = 100;
  EXPECT_NE(a, AzureLikeTrace(4, p));
}

TEST(AzureLikeTraceTest, MeanRateConvergesToTarget) {
  AzureLikeParams p;
  p.total_rps = 40.0;
  p.duration = Seconds(600);
  p.seed = 7;
  const Trace t = AzureLikeTrace(4, p);
  EXPECT_NEAR(MeanRps(t, p.duration), 40.0, 6.0);
}

TEST(AzureLikeTraceTest, SortedAndWithinDuration) {
  AzureLikeParams p;
  p.total_rps = 30.0;
  p.duration = Seconds(120);
  const Trace t = AzureLikeTrace(3, p);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t[i].time, t[i - 1].time);
  }
  for (const Invocation& inv : t) {
    EXPECT_GE(inv.time, 0);
    EXPECT_LT(inv.time, p.duration);
    EXPECT_GE(inv.fn.value, 0);
    EXPECT_LT(inv.fn.value, 3);
  }
}

TEST(AzureLikeTraceTest, PopularityIsHeavyTailed) {
  AzureLikeParams p;
  p.total_rps = 50.0;
  p.duration = Seconds(300);
  p.seed = 21;
  const Trace t = AzureLikeTrace(6, p);
  std::vector<std::size_t> counts(6, 0);
  for (const auto& inv : t) counts[static_cast<std::size_t>(inv.fn.value)]++;
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  // Pareto shares: the most popular function dominates the least popular.
  EXPECT_GT(*mx, 3 * std::max<std::size_t>(*mn, 1));
}

TEST(AzureLikeTraceTest, BurstsModulateShortWindows) {
  AzureLikeParams p;
  p.total_rps = 40.0;
  p.duration = Seconds(600);
  p.seed = 3;
  const Trace t = AzureLikeTrace(1, p);  // single function: pure burst view
  // Per-10s window counts should vary well beyond Poisson noise.
  std::vector<double> windows(60, 0.0);
  for (const auto& inv : t) {
    windows[static_cast<std::size_t>(ToSeconds(inv.time) / 10.0)] += 1.0;
  }
  EXPECT_GT(CoefficientOfVariation(windows), 0.2);
}

TEST(CsvTest, RoundTrips) {
  Trace t = {{Seconds(1), FunctionId(2)},
             {Seconds(2), FunctionId(0)},
             {Seconds(2) + 5, FunctionId(1)}};
  std::stringstream ss;
  SaveCsv(t, ss);
  const Trace back = LoadCsv(ss);
  EXPECT_EQ(back, t);
}

TEST(CsvTest, LoaderSortsAndSkipsHeader) {
  std::stringstream ss(
      "time_us,function_id\n3000000,1\n1000000,0\n\n2000000,2\n");
  const Trace t = LoadCsv(ss);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].time, Seconds(1));
  EXPECT_EQ(t[2].fn, FunctionId(1));
}

TEST(CsvTest, MalformedLineThrows) {
  std::stringstream ss("12345\n");
  EXPECT_THROW(LoadCsv(ss), FfsError);
}

TEST(MeanRpsTest, Basics) {
  Trace t = {{0, FunctionId(0)}, {1, FunctionId(0)}};
  EXPECT_DOUBLE_EQ(MeanRps(t, Seconds(2)), 1.0);
  EXPECT_DOUBLE_EQ(MeanRps(t, 0), 0.0);
}

}  // namespace
}  // namespace fluidfaas::trace
