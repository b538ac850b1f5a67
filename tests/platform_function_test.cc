#include "platform/function.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "model/zoo.h"

namespace fluidfaas::platform {
namespace {

TEST(FunctionSpecTest, FieldsDeriveFromDag) {
  const auto dag = model::BuildApp(0, model::Variant::kSmall);
  FunctionSpec f = MakeFunctionSpec(FunctionId(0), 0, model::Variant::kSmall,
                                    dag, /*slo_scale=*/1.5);
  EXPECT_EQ(f.id, FunctionId(0));
  EXPECT_EQ(f.app_index, 0);
  EXPECT_EQ(f.total_memory, dag.TotalMemory());
  EXPECT_EQ(f.min_monolithic, gpu::MigProfile::k1g10gb);
  EXPECT_FALSE(f.ranked_pipelines.empty());
  EXPECT_EQ(f.name, dag.name());
}

TEST(FunctionSpecTest, SloIsScaleTimesBase) {
  const auto dag = model::BuildApp(0, model::Variant::kSmall);
  FunctionSpec f15 = MakeFunctionSpec(FunctionId(0), 0,
                                      model::Variant::kSmall, dag, 1.5);
  FunctionSpec f30 = MakeFunctionSpec(FunctionId(0), 0,
                                      model::Variant::kSmall, dag, 3.0);
  EXPECT_EQ(f15.base_latency, f30.base_latency);
  EXPECT_EQ(f15.slo, f15.base_latency + f15.base_latency / 2);
  EXPECT_EQ(f30.slo, 2 * f15.slo);
}

TEST(FunctionSpecTest, BaseLatencyUsesTable5MinimumSliceClass) {
  // Medium variants: the Table 5 minimum (pipelined) is 1g, so t is the
  // end-to-end latency with every component on one GPC.
  const auto dag = model::BuildApp(0, model::Variant::kMedium);
  FunctionSpec f = MakeFunctionSpec(FunctionId(0), 0,
                                    model::Variant::kMedium, dag, 1.5);
  EXPECT_EQ(f.base_latency, dag.TotalLatencyOnGpcs(1));
  // Large variants: the minimum slice class is 2g.
  const auto large = model::BuildApp(0, model::Variant::kLarge);
  FunctionSpec fl = MakeFunctionSpec(FunctionId(1), 0,
                                     model::Variant::kLarge, large, 1.5);
  EXPECT_EQ(fl.base_latency, large.TotalLatencyOnGpcs(2));
}

TEST(FunctionSpecTest, RankedPipelinesLeadWithMonolithic) {
  const auto dag = model::BuildApp(1, model::Variant::kMedium);
  FunctionSpec f = MakeFunctionSpec(FunctionId(0), 1,
                                    model::Variant::kMedium, dag, 1.5);
  EXPECT_EQ(f.ranked_pipelines.front().num_stages(), 1);
}

TEST(FunctionSpecTest, MaxStagesIsRespected) {
  const auto dag = model::BuildApp(3, model::Variant::kSmall);  // 5 nodes
  FunctionSpec f = MakeFunctionSpec(FunctionId(0), 3,
                                    model::Variant::kSmall, dag, 1.5,
                                    /*max_stages=*/2);
  for (const auto& c : f.ranked_pipelines) {
    EXPECT_LE(c.num_stages(), 2);
  }
}

TEST(FunctionSpecTest, RejectsSubUnitSloScale) {
  const auto dag = model::BuildApp(0, model::Variant::kSmall);
  EXPECT_THROW(MakeFunctionSpec(FunctionId(0), 0, model::Variant::kSmall,
                                dag, 0.5),
               FfsError);
}

TEST(FunctionSpecTest, AllStudyCellsProduceSpecs) {
  int id = 0;
  for (int a = 0; a < model::kNumApps; ++a) {
    for (model::Variant v : model::kAllVariants) {
      if (!model::IncludedInStudy(a, v)) continue;
      FunctionSpec f = MakeFunctionSpec(FunctionId(id++), a, v,
                                        model::BuildApp(a, v), 1.5);
      EXPECT_GT(f.slo, f.base_latency);
      EXPECT_FALSE(f.ranked_pipelines.empty()) << f.name;
    }
  }
}

}  // namespace
}  // namespace fluidfaas::platform
