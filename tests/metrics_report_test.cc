#include "metrics/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace fluidfaas::metrics {
namespace {

TEST(TableTest, AlignsColumnsToWidestCell) {
  Table t({"name", "value"});
  t.AddRow({"throughput", "42.5"});
  t.AddRow({"x", "123456789"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| throughput | 42.5      |"), std::string::npos);
  EXPECT_NE(out.find("| x          | 123456789 |"), std::string::npos);
  // Three rules: top, under header, bottom.
  std::size_t rules = 0, pos = 0;
  while ((pos = out.find("+--", pos)) != std::string::npos) {
    ++rules;
    pos = out.find('\n', pos);
  }
  EXPECT_EQ(rules, 3u);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only one"}), FfsError);
}

TEST(FmtTest, Decimals) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(3.0, 0), "3");
  EXPECT_EQ(Fmt(-1.5, 1), "-1.5");
}

TEST(FmtTest, Percent) {
  EXPECT_EQ(FmtPercent(0.753, 1), "75.3%");
  EXPECT_EQ(FmtPercent(1.0, 0), "100%");
}

TEST(FmtTest, GainSignFollowsPrintedValue) {
  EXPECT_EQ(FmtGain(125.0, 100.0, 1), "+25.0%");
  EXPECT_EQ(FmtGain(99.9, 100.0, 1), "-0.1%");
  EXPECT_EQ(FmtGain(99.96, 100.0, 1), "+0.0%");
  EXPECT_EQ(FmtGain(100.0, 100.0, 1), "+0.0%");
  EXPECT_EQ(FmtGain(0.5, 2.0, 0), "-75%");
  EXPECT_EQ(FmtGain(0.0, 2.0, 0), "-100%");
}

TEST(FmtTest, GainIsUndefinedOverANonPositiveBaseOrANonFiniteRatio) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  EXPECT_EQ(FmtGain(5.0, 0.0, 1), "-");
  EXPECT_EQ(FmtGain(0.0, 0.0, 1), "-");
  EXPECT_EQ(FmtGain(5.0, -2.0, 1), "-");
  EXPECT_EQ(FmtGain(5.0, nan, 1), "-");
  EXPECT_EQ(FmtGain(nan, 1.0, 1), "-");
  EXPECT_EQ(FmtGain(kInf, 1.0, 1), "-");
  // A positive base so small that the ratio overflows.
  EXPECT_EQ(FmtGain(1.0, std::numeric_limits<double>::denorm_min(), 1), "-");
}

TEST(FmtTest, Millis) {
  EXPECT_EQ(FmtMillis(1500.0, 1), "1.5ms");
  EXPECT_EQ(FmtMillis(2.5e6, 0), "2500ms");
}

}  // namespace
}  // namespace fluidfaas::metrics
