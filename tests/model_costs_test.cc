#include "model/costs.h"

#include <gtest/gtest.h>

#include "model/zoo.h"

namespace fluidfaas::model {
namespace {

TEST(TransferCostTest, MonotoneInBytes) {
  TransferCostModel m;
  SimDuration prev = m.HopCost(0);
  for (Bytes b : {MiB(1), MiB(10), MiB(100), GiB(1)}) {
    const SimDuration t = m.HopCost(b);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(TransferCostTest, ZeroBytesStillPaysFixedOverhead) {
  TransferCostModel m;
  EXPECT_EQ(m.HopCost(0), m.fixed);
}

TEST(TransferCostTest, TensorCrossesBusTwice) {
  TransferCostModel m;
  m.fixed = 0;
  // 1 GB at 20 GB/s each way = 2 * 50 ms.
  EXPECT_NEAR(ToMillis(m.HopCost(static_cast<Bytes>(1e9))), 100.0, 1.0);
}

TEST(TransferCostTest, StudyTensorsLandInPaperBand) {
  // §7.3: pipeline hop overhead is 10-40 ms across the evaluated apps.
  TransferCostModel m;
  for (int a = 0; a < kNumApps; ++a) {
    for (Variant v : kAllVariants) {
      if (!IncludedInStudy(a, v)) continue;
      const AppDag dag = BuildApp(a, v);
      for (int k = 1; k < dag.size(); ++k) {
        const SimDuration hop = m.HopCost(dag.CutBytes(k));
        EXPECT_GE(hop, Millis(5)) << dag.name() << " cut " << k;
        EXPECT_LE(hop, Millis(45)) << dag.name() << " cut " << k;
      }
    }
  }
}

TEST(LoadCostTest, WarmBeatsColdAlways) {
  LoadCostModel m;
  for (Bytes w : {MiB(100), GiB(1), GiB(10)}) {
    EXPECT_LT(m.WarmLoad(w), m.ColdLoad(w));
  }
}

TEST(LoadCostTest, ColdIncludesContainerStart) {
  LoadCostModel m;
  EXPECT_GE(m.ColdLoad(0), m.container_start);
}

TEST(LoadCostTest, WarmLoadScalesWithWeights) {
  LoadCostModel m;
  m.runtime_init = 0;
  // 16 GB at 16 GB/s = 1 s.
  EXPECT_NEAR(ToSeconds(m.WarmLoad(static_cast<Bytes>(16e9))), 1.0, 0.01);
}

TEST(LoadCostTest, EvictIsDeviceToHostCopy) {
  LoadCostModel m;
  EXPECT_EQ(m.Evict(0), 0);
  EXPECT_GT(m.Evict(GiB(4)), 0);
  EXPECT_LT(m.Evict(GiB(4)), m.WarmLoad(GiB(4)));  // no runtime re-init
}

TEST(LoadCostTest, PaperScaleColdStartsAreSeconds) {
  // Cold-starting a multi-GB model must be seconds, not milliseconds —
  // that is what makes the warm/cold distinction of §5.3 matter.
  LoadCostModel m;
  const SimDuration cold = m.ColdLoad(GiB(3));
  EXPECT_GT(cold, Seconds(4));
  EXPECT_LT(cold, Seconds(30));
}

}  // namespace
}  // namespace fluidfaas::model
