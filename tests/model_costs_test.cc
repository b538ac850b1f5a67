#include "model/costs.h"

#include <gtest/gtest.h>

#include "model/zoo.h"

namespace fluidfaas::model {
namespace {

TEST(TransferCostTest, MonotoneInBytes) {
  SimDuration prev = HopCost(0);
  for (Bytes b : {MiB(1), MiB(10), MiB(100), GiB(1)}) {
    const SimDuration t = HopCost(b);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(TransferCostTest, ZeroBytesStillPaysFixedOverhead) {
  EXPECT_EQ(HopCost(0), kHopFixed);
}

TEST(TransferCostTest, TensorCrossesBusTwice) {
  // 1 GB at 20 GB/s each way = 2 * 50 ms on top of the fixed overhead.
  EXPECT_NEAR(ToMillis(HopCost(static_cast<Bytes>(1e9)) - kHopFixed), 100.0,
              1.0);
}

TEST(TransferCostTest, StudyTensorsLandInPaperBand) {
  // §7.3: pipeline hop overhead is 10-40 ms across the evaluated apps.
  for (int a = 0; a < kNumApps; ++a) {
    for (Variant v : kAllVariants) {
      if (!IncludedInStudy(a, v)) continue;
      const AppDag dag = BuildApp(a, v);
      for (int k = 1; k < dag.size(); ++k) {
        const SimDuration hop = HopCost(dag.CutBytes(k));
        EXPECT_GE(hop, Millis(5)) << dag.name() << " cut " << k;
        EXPECT_LE(hop, Millis(45)) << dag.name() << " cut " << k;
      }
    }
  }
}

TEST(LoadCostTest, WarmBeatsColdAlways) {
  for (Bytes w : {MiB(100), GiB(1), GiB(10)}) {
    EXPECT_LT(WarmLoad(w), ColdLoad(w));
  }
}

TEST(LoadCostTest, ColdIncludesContainerStart) {
  EXPECT_GE(ColdLoad(0), kContainerStart);
}

TEST(LoadCostTest, WarmLoadScalesWithWeights) {
  // 16 GB at 16 GB/s = 1 s on top of the runtime initialization.
  EXPECT_NEAR(ToSeconds(WarmLoad(static_cast<Bytes>(16e9)) - kRuntimeInit),
              1.0, 0.01);
}

TEST(LoadCostTest, EvictIsDeviceToHostCopy) {
  EXPECT_EQ(Evict(0), 0);
  EXPECT_GT(Evict(GiB(4)), 0);
  EXPECT_LT(Evict(GiB(4)), WarmLoad(GiB(4)));  // no runtime re-init
}

TEST(LoadCostTest, PaperScaleColdStartsAreSeconds) {
  // Cold-starting a multi-GB model must be seconds, not milliseconds —
  // that is what makes the warm/cold distinction of §5.3 matter.
  const SimDuration cold = ColdLoad(GiB(3));
  EXPECT_GT(cold, Seconds(4));
  EXPECT_LT(cold, Seconds(30));
}

}  // namespace
}  // namespace fluidfaas::model
