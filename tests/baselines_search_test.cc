#include "baselines/esg_search.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "model/zoo.h"

namespace fluidfaas::baselines {
namespace {

model::AppDag Dag(Bytes per_comp, SimDuration t1, int k = 3) {
  std::vector<model::ComponentSpec> cs;
  std::vector<model::DagEdge> es;
  for (int i = 0; i < k; ++i) {
    model::ComponentSpec c;
    c.id = ComponentId(i);
    std::string name = "c";
  name += std::to_string(i);
  c.name = std::move(name);
    c.cls = model::ComponentClass::kClassification;
    c.weights = per_comp / 2;
    c.activations = per_comp - per_comp / 2;
    c.latency_1gpc = t1;
    c.serial_fraction = 0.0;
    c.output_bytes = MiB(10);
    cs.push_back(c);
    es.push_back({i - 1, i});
  }
  return model::AppDag("dag", std::move(cs), std::move(es));
}

std::vector<int> Free(int g1, int g2, int g3, int g4, int g7) {
  return {g1, g2, g3, g4, g7};
}

TEST(SliceOptionsTest, MemoryFitFiltersSmallProfiles) {
  // 3 x 5 GB = 15 GB total: 1g (10 GB) is OOM, 2g+ feasible.
  auto dag = Dag(GiB(5), Millis(100));
  auto opts = MakeSliceOptions(dag, Free(7, 3, 2, 1, 1), Seconds(10));
  for (const auto& o : opts) {
    EXPECT_NE(o.profile, gpu::MigProfile::k1g10gb);
    EXPECT_GE(gpu::MemBytes(o.profile), dag.TotalMemory());
  }
  EXPECT_EQ(opts.size(), 4u);
}

TEST(SliceOptionsTest, LatencyBladeFiltersSlowProfiles) {
  // t(g) = 600/g ms with zero serial fraction. SLO 250 ms: 1g (600) and
  // 2g (300) are pruned; 3g (200), 4g (150), 7g (~86) survive.
  auto dag = Dag(GiB(1), Millis(200));
  auto opts = MakeSliceOptions(dag, Free(7, 3, 2, 1, 1), Millis(250));
  ASSERT_EQ(opts.size(), 3u);
  EXPECT_EQ(opts[0].profile, gpu::MigProfile::k3g40gb);
}

TEST(SliceOptionsTest, UnavailableProfilesAreSkipped) {
  auto dag = Dag(GiB(1), Millis(100));
  auto opts = MakeSliceOptions(dag, Free(0, 0, 0, 1, 0), Seconds(10));
  ASSERT_EQ(opts.size(), 1u);
  EXPECT_EQ(opts[0].profile, gpu::MigProfile::k4g40gb);
  EXPECT_EQ(opts[0].available, 1);
}

TEST(EsgSearchTest, CoversDemandAtMinimumGpcCost) {
  // Each 1g instance serves 1/0.6 = 1.67 rps; 2g serves 3.33 at 2 GPCs —
  // identical rps/GPC, so the optimum for 5 rps costs exactly 3 GPCs.
  auto dag = Dag(GiB(2), Millis(200));
  auto res = EsgSearch(dag, Free(7, 3, 2, 1, 1), Seconds(10), 5.0);
  ASSERT_TRUE(res.has_value());
  EXPECT_GE(res->capacity_rps, 5.0);
  EXPECT_EQ(res->total_gpcs, 3);
}

TEST(EsgSearchTest, OptimalityAgainstBruteForce) {
  // Exhaustive check on small instances: A* returns a minimum-GPC feasible
  // configuration for random demands.
  Rng rng(11);
  auto dag = Dag(GiB(2), Millis(350));
  const auto free = Free(3, 2, 1, 1, 0);
  auto opts = MakeSliceOptions(dag, free, Seconds(10));
  ASSERT_FALSE(opts.empty());
  for (int trial = 0; trial < 25; ++trial) {
    const double demand = rng.Uniform(0.5, 12.0);
    auto res = EsgSearch(dag, free, Seconds(10), demand);

    // Brute force over counts.
    int best = 1 << 20;
    for (int a = 0; a <= opts[0].available; ++a) {
      for (int b = 0; b <= opts[1].available; ++b) {
        for (int c = 0; c <= opts[2].available; ++c) {
          for (int d = 0; d <= opts[3].available; ++d) {
            const double cap = a * opts[0].capacity_rps() +
                               b * opts[1].capacity_rps() +
                               c * opts[2].capacity_rps() +
                               d * opts[3].capacity_rps();
            if (cap < demand) continue;
            const int gpcs = a * gpu::Gpcs(opts[0].profile) +
                             b * gpu::Gpcs(opts[1].profile) +
                             c * gpu::Gpcs(opts[2].profile) +
                             d * gpu::Gpcs(opts[3].profile);
            best = std::min(best, gpcs);
          }
        }
      }
    }
    if (best == (1 << 20)) {
      EXPECT_FALSE(res.has_value()) << "demand " << demand;
    } else {
      ASSERT_TRUE(res.has_value()) << "demand " << demand;
      EXPECT_EQ(res->total_gpcs, best) << "demand " << demand;
      EXPECT_GE(res->capacity_rps, demand);
    }
  }
}

TEST(EsgSearchTest, InfeasibleDemandReturnsNullopt) {
  auto dag = Dag(GiB(2), Millis(500));
  // Tiny inventory cannot reach 100 rps.
  EXPECT_FALSE(EsgSearch(dag, Free(1, 0, 0, 0, 0), Seconds(10), 100.0)
                   .has_value());
}

TEST(EsgSearchTest, NoUsableProfileReturnsNullopt) {
  // 90 GB total memory: nothing fits.
  auto dag = Dag(GiB(30), Millis(100));
  EXPECT_FALSE(EsgSearch(dag, Free(7, 3, 2, 1, 1), Seconds(10), 1.0)
                   .has_value());
}

TEST(EsgSearchTest, ZeroDemandPicksCheapestSingleInstance) {
  auto dag = Dag(GiB(2), Millis(100));
  auto res = EsgSearch(dag, Free(7, 3, 2, 1, 1), Seconds(10), 0.0);
  ASSERT_TRUE(res.has_value());
  ASSERT_EQ(res->chosen.size(), 1u);
  EXPECT_EQ(res->chosen[0], gpu::MigProfile::k1g10gb);
}

TEST(EsgSearchTest, LatencyBladeCountsPrunedTypes) {
  // SLO 250 ms prunes 1g and 2g (see above).
  auto dag = Dag(GiB(1), Millis(200));
  auto res = EsgSearch(dag, Free(7, 3, 2, 1, 1), Millis(250), 1.0);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->pruned_latency, 2u);
  for (gpu::MigProfile p : res->chosen) {
    EXPECT_GE(gpu::Gpcs(p), 3);
  }
}

TEST(EsgSearchTest, DominancePruningFires) {
  // A demand needing several instances explores enough states for the
  // dominance blade to trigger.
  auto dag = Dag(GiB(2), Millis(400));
  auto res = EsgSearch(dag, Free(7, 3, 2, 1, 1), Seconds(10), 15.0);
  ASSERT_TRUE(res.has_value());
  EXPECT_GT(res->expanded, 0u);
  EXPECT_GT(res->pruned_dominance, 0u);
}

TEST(EsgSearchTest, RespectsAvailability) {
  auto dag = Dag(GiB(2), Millis(200));
  auto res = EsgSearch(dag, Free(2, 0, 0, 0, 0), Seconds(10), 3.0);
  ASSERT_TRUE(res.has_value());
  EXPECT_LE(res->chosen.size(), 2u);
}

}  // namespace
}  // namespace fluidfaas::baselines
