#include "model/llm.h"

#include <gtest/gtest.h>

#include "core/partitioner.h"
#include "core/pipeline.h"
#include "gpu/cluster.h"
#include "model/zoo.h"

namespace fluidfaas::model {
namespace {

class LlmSizeTest : public ::testing::TestWithParam<LlmSize> {};

TEST_P(LlmSizeTest, DagIsAValidChain) {
  const AppDag dag = BuildLlmApp(GetParam());
  const LlmSpec& spec = SpecFor(GetParam());
  EXPECT_EQ(dag.size(), 2 + spec.layer_groups);
  // tokenizer first, detokenizer last, transformer groups in between.
  EXPECT_EQ(dag.component(0).cls, ComponentClass::kTokenizer);
  EXPECT_EQ(dag.component(dag.size() - 1).cls,
            ComponentClass::kDetokenizer);
  for (int i = 1; i < dag.size() - 1; ++i) {
    EXPECT_EQ(dag.component(i).cls, ComponentClass::kTransformerLayers);
  }
  dag.Validate();
}

TEST_P(LlmSizeTest, EveryStageFitsSomeProfile) {
  const AppDag dag = BuildLlmApp(GetParam());
  for (int i = 0; i < dag.size(); ++i) {
    gpu::MigProfile p;
    EXPECT_TRUE(gpu::SmallestProfileForMemory(
        dag.component(i).MemoryRequired(), p));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LlmSizeTest,
                         ::testing::Values(LlmSize::k7B, LlmSize::k13B,
                                           LlmSize::k34B));

TEST(LlmTest, MonolithicVsPipelinedMinimums) {
  // 7B fits a 2g monolithically and 1g pipelined.
  const auto b7 = BuildLlmApp(LlmSize::k7B);
  EXPECT_EQ(core::MinMonolithicProfile(b7), gpu::MigProfile::k2g20gb);
  EXPECT_EQ(core::MinPipelinedProfile(b7, 4), gpu::MigProfile::k1g10gb);

  // 13B needs a 40 GB profile monolithically, 2g pipelined.
  const auto b13 = BuildLlmApp(LlmSize::k13B);
  EXPECT_EQ(core::MinMonolithicProfile(b13), gpu::MigProfile::k3g40gb);
  EXPECT_EQ(core::MinPipelinedProfile(b13, 4), gpu::MigProfile::k2g20gb);

  // 34B exceeds every profile monolithically — FluidFaaS's pipelined
  // minimum is still a 2g fragment.
  const auto b34 = BuildLlmApp(LlmSize::k34B);
  EXPECT_FALSE(core::MinMonolithicProfile(b34).has_value());
  EXPECT_EQ(core::MinPipelinedProfile(b34, 6), gpu::MigProfile::k2g20gb);
}

TEST(LlmTest, SizesScaleMonotonically) {
  const auto b7 = BuildLlmApp(LlmSize::k7B);
  const auto b13 = BuildLlmApp(LlmSize::k13B);
  const auto b34 = BuildLlmApp(LlmSize::k34B);
  EXPECT_LT(b7.TotalMemory(), b13.TotalMemory());
  EXPECT_LT(b13.TotalMemory(), b34.TotalMemory());
  EXPECT_LT(b7.TotalLatencyOnGpcs(1), b13.TotalLatencyOnGpcs(1));
}

TEST(LlmTest, ThirtyFourBDeploysOnDefaultPartitionFragments) {
  // The headline: per-group 2g stages on a default-partitioned node.
  auto cluster = gpu::Cluster::Uniform(1, 4, gpu::DefaultPartition());
  const auto dag = BuildLlmApp(LlmSize::k34B);
  auto ranked = core::EnumerateRankedPipelines(dag, 6);
  ASSERT_FALSE(ranked.empty());
  auto plan = core::PlanFirstFeasible(dag, ranked, cluster);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GT(plan->num_stages(), 1);
  for (const auto& s : plan->stages) {
    EXPECT_LE(s.plan.memory, cluster.slice(s.slice).memory());
  }
}

TEST(LlmTest, NamesAreStable) {
  EXPECT_STREQ(Name(LlmSize::k7B), "llm_7b");
  EXPECT_STREQ(Name(LlmSize::k34B), "llm_34b");
  EXPECT_STREQ(Name(ComponentClass::kTokenizer), "tokenizer");
  EXPECT_STREQ(Name(ComponentClass::kTransformerLayers),
               "transformer_layers");
  EXPECT_STREQ(Name(ComponentClass::kDetokenizer), "detokenizer");
}

TEST(LlmTest, HiddenStateHopsAreCheap) {
  // Inter-group tensors must stay in the shared-memory budget.
  const auto dag = BuildLlmApp(LlmSize::k34B);
  for (int k = 1; k < dag.size(); ++k) {
    EXPECT_LE(HopCost(dag.CutBytes(k)), Millis(40));
  }
}

}  // namespace
}  // namespace fluidfaas::model
