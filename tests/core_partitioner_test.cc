#include "core/partitioner.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "model/zoo.h"

namespace fluidfaas::core {
namespace {

model::ComponentSpec Comp(int idx, Bytes mem, SimDuration t) {
  model::ComponentSpec c;
  c.id = ComponentId(idx);
  std::string name = "c";
  name += std::to_string(idx);
  c.name = std::move(name);
  c.cls = model::ComponentClass::kClassification;
  c.weights = mem / 2;
  c.activations = mem - mem / 2;
  c.latency_1gpc = t;
  c.serial_fraction = 0.0;  // linear scaling keeps test arithmetic exact
  c.output_bytes = MiB(10);
  return c;
}

model::AppDag Chain(std::vector<std::pair<Bytes, SimDuration>> comps) {
  std::vector<model::ComponentSpec> cs;
  std::vector<model::DagEdge> es;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    cs.push_back(Comp(static_cast<int>(i), comps[i].first, comps[i].second));
    es.push_back({static_cast<int>(i) - 1, static_cast<int>(i)});
  }
  return model::AppDag("chain", std::move(cs), std::move(es));
}

TEST(StagePlanTest, AggregatesMemoryAndTime) {
  auto dag = Chain({{GiB(2), Millis(100)}, {GiB(3), Millis(200)}});
  auto stage = MakeStagePlan(dag, 0, 2);
  ASSERT_TRUE(stage.has_value());
  EXPECT_EQ(stage->memory, GiB(5));
  EXPECT_EQ(stage->min_profile, gpu::MigProfile::k1g10gb);
  EXPECT_EQ(stage->time_on_min_profile, Millis(300));
}

TEST(StagePlanTest, InfeasibleStageReturnsNullopt) {
  auto dag = Chain({{GiB(90), Millis(100)}});
  EXPECT_FALSE(MakeStagePlan(dag, 0, 1).has_value());
}

TEST(EnumerateTest, CountsAllConsecutivePartitions) {
  // k components -> 2^(k-1) candidates when everything is feasible. The
  // paper's apps top out at k = 5; k = 12 (42 GiB in all, so even the
  // one-stage plan fits a 7g.80gb slice) pushes the exhaustive enumerator
  // well past them, with unequal stages so the CV order is not all ties.
  for (int k = 1; k <= 12; ++k) {
    std::vector<std::pair<Bytes, SimDuration>> comps;
    for (int i = 0; i < k; ++i) {
      comps.emplace_back(GiB(1 + i % 6), Millis(40 + 30 * (i % 5)));
    }
    auto dag = Chain(comps);
    auto cands = EnumerateRankedPipelines(dag, /*max_stages=*/k);
    EXPECT_EQ(cands.size(), 1u << (k - 1)) << "k=" << k;
    for (std::size_t i = 1; i < cands.size(); ++i) {
      EXPECT_LE(cands[i - 1].cv, cands[i].cv) << "k=" << k << " i=" << i;
    }
  }
}

TEST(EnumerateTest, MaxStagesLimitsDepth) {
  auto dag = Chain({{GiB(1), Millis(100)},
                    {GiB(1), Millis(100)},
                    {GiB(1), Millis(100)}});
  auto cands = EnumerateRankedPipelines(dag, 2);
  for (const auto& c : cands) EXPECT_LE(c.num_stages(), 2);
  // 1 one-stage + 2 two-stage = 3 of the 4 partitions.
  EXPECT_EQ(cands.size(), 3u);
}

TEST(EnumerateTest, MonolithicRanksFirstUnderCv) {
  auto dag = Chain({{GiB(2), Millis(100)},
                    {GiB(2), Millis(100)},
                    {GiB(2), Millis(100)}});
  auto cands = EnumerateRankedPipelines(dag, 3);
  ASSERT_FALSE(cands.empty());
  // Single stage has CV exactly 0 and fewest stages: always ranked first.
  EXPECT_EQ(cands.front().num_stages(), 1);
  EXPECT_DOUBLE_EQ(cands.front().cv, 0.0);
}

TEST(EnumerateTest, RankingIsAscendingCv) {
  auto dag = Chain({{GiB(2), Millis(130)},
                    {GiB(3), Millis(70)},
                    {GiB(1), Millis(260)},
                    {GiB(2), Millis(40)}});
  auto cands = EnumerateRankedPipelines(dag, 4);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LE(cands[i - 1].cv, cands[i].cv);
  }
}

TEST(EnumerateTest, CvMatchesEquationOne) {
  // Stages of 100 ms and 300 ms: mean 200, std 100 -> CV 0.5.
  auto dag = Chain({{GiB(1), Millis(100)}, {GiB(1), Millis(300)}});
  auto cands = EnumerateRankedPipelines(dag, 2);
  const PipelineCandidate* two_stage = nullptr;
  for (const auto& c : cands) {
    if (c.num_stages() == 2) two_stage = &c;
  }
  ASSERT_NE(two_stage, nullptr);
  EXPECT_NEAR(two_stage->cv, 0.5, 1e-9);
}

TEST(EnumerateTest, InfeasibleStagesAreDropped) {
  // Middle component alone exceeds every profile: any partition putting it
  // in any stage is infeasible because the stage memory >= 90 GB.
  auto dag = Chain({{GiB(1), Millis(100)},
                    {GiB(90), Millis(100)},
                    {GiB(1), Millis(100)}});
  EXPECT_TRUE(EnumerateRankedPipelines(dag, 3).empty());
}

TEST(EnumerateTest, StagesPartitionTheDag) {
  auto dag = Chain({{GiB(2), Millis(10)},
                    {GiB(2), Millis(20)},
                    {GiB(2), Millis(30)},
                    {GiB(2), Millis(40)}});
  for (const auto& cand : EnumerateRankedPipelines(dag, 4)) {
    int cursor = 0;
    for (const StagePlan& s : cand.stages) {
      EXPECT_EQ(s.begin, cursor);
      EXPECT_GT(s.end, s.begin);
      cursor = s.end;
    }
    EXPECT_EQ(cursor, dag.size());
  }
}

TEST(EnumerateTest, PoliciesProduceDifferentLeadingCandidates) {
  // Unbalanced chain where a deep split hurts latency but helps CV.
  auto dag = Chain({{GiB(12), Millis(400)},
                    {GiB(12), Millis(400)},
                    {GiB(2), Millis(100)}});
  auto cv = EnumerateRankedPipelines(dag, 3, RankPolicy::kCv);
  auto fewest = EnumerateRankedPipelines(dag, 3, RankPolicy::kFewestStages);
  auto greedy = EnumerateRankedPipelines(dag, 3, RankPolicy::kGreedyLatency);
  ASSERT_FALSE(cv.empty());
  EXPECT_EQ(cv.size(), fewest.size());
  EXPECT_EQ(cv.size(), greedy.size());
  // Fewest-stages leads with the monolithic candidate...
  EXPECT_EQ(fewest.front().num_stages(), 1);
  // ...and greedy-latency leads with the lowest summed latency.
  SimDuration best = kTimeInfinity;
  for (const auto& c : greedy) {
    SimDuration t = 0;
    for (const auto& s : c.stages) t += s.time_on_min_profile;
    best = std::min(best, t);
  }
  SimDuration lead = 0;
  for (const auto& s : greedy.front().stages) lead += s.time_on_min_profile;
  EXPECT_EQ(lead, best);
}

TEST(MinProfileTest, MonolithicAndPipelined) {
  // Total 24 GB (needs 3g.40gb mono), max component 8 GB (1g pipelined).
  auto dag = Chain({{GiB(8), Millis(100)},
                    {GiB(8), Millis(100)},
                    {GiB(8), Millis(100)}});
  EXPECT_EQ(MinMonolithicProfile(dag), gpu::MigProfile::k3g40gb);
  EXPECT_EQ(MinPipelinedProfile(dag, 3), gpu::MigProfile::k1g10gb);
  // With pipelining capped at 1 stage, the pipelined min equals mono.
  EXPECT_EQ(MinPipelinedProfile(dag, 1), gpu::MigProfile::k3g40gb);
}

TEST(MinProfileTest, NothingFits) {
  auto dag = Chain({{GiB(90), Millis(100)}});
  EXPECT_FALSE(MinMonolithicProfile(dag).has_value());
  EXPECT_FALSE(MinPipelinedProfile(dag, 4).has_value());
}

TEST(PartitionerPropertyTest, RandomChainsInvariants) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<std::pair<Bytes, SimDuration>> comps;
    for (int i = 0; i < k; ++i) {
      comps.push_back({GiB(rng.UniformInt(1, 12)),
                       Millis(rng.UniformInt(20, 500))});
    }
    auto dag = Chain(comps);
    auto cands = EnumerateRankedPipelines(dag, k);
    std::set<std::vector<int>> seen;
    for (const auto& c : cands) {
      // CV non-negative, ascending order, unique cut patterns.
      EXPECT_GE(c.cv, 0.0);
      std::vector<int> cuts;
      for (const auto& s : c.stages) cuts.push_back(s.begin);
      EXPECT_TRUE(seen.insert(cuts).second);
      // Stage memory sums to the DAG total.
      Bytes total = 0;
      for (const auto& s : c.stages) total += s.memory;
      EXPECT_EQ(total, dag.TotalMemory());
    }
    for (std::size_t i = 1; i < cands.size(); ++i) {
      EXPECT_LE(cands[i - 1].cv, cands[i].cv);
    }
  }
}

TEST(PartitionerTest, ToStringIsInformative) {
  auto dag = Chain({{GiB(2), Millis(100)}, {GiB(2), Millis(100)}});
  auto cands = EnumerateRankedPipelines(dag, 2);
  const std::string s = ToString(cands.front());
  EXPECT_NE(s.find("cv="), std::string::npos);
  EXPECT_NE(s.find("1g.10gb"), std::string::npos);
}

}  // namespace
}  // namespace fluidfaas::core
