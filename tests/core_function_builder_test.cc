#include "core/ffs_function.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/error.h"
#include "model/zoo.h"

namespace fluidfaas::core {
namespace {

model::ComponentSpec Spec(const char* name) {
  model::ComponentSpec c;
  c.name = name;
  c.cls = model::ComponentClass::kClassification;
  c.weights = GiB(1);
  c.activations = GiB(1);
  c.latency_1gpc = Millis(100);
  c.serial_fraction = 0.1;
  c.output_bytes = MiB(10);
  return c;
}

/// The DAG's edges as (from, to) pairs, in stored order.
std::vector<std::pair<int, int>> Edges(const model::AppDag& dag) {
  std::vector<std::pair<int, int>> out;
  for (const model::DagEdge& e : dag.edges()) out.emplace_back(e.from, e.to);
  return out;
}

TEST(FfsFunctionBuilderTest, ChainRegistration) {
  // The Fig. 7 pattern: models registered in dataflow order.
  FfsModule m1(Spec("m1")), m2(Spec("m2")), m3(Spec("m3"));
  FfsFunctionBuilder b("chain");
  auto x1 = m1.reg(b, {FfsFunctionBuilder::kInput});
  auto x2 = m2.reg(b, {x1});
  m3.reg(b, {x2});

  model::AppDag dag = std::move(b).Build();
  EXPECT_EQ(dag.size(), 3);
  EXPECT_EQ(dag.name(), "chain");
  EXPECT_EQ(Edges(dag),
            (std::vector<std::pair<int, int>>{{-1, 0}, {0, 1}, {1, 2}}));
}

TEST(FfsFunctionBuilderTest, FanInLikeFigure7) {
  // Fig. 7's defDAG: x3 = model3.reg(x1, x2) — a join node.
  FfsModule m1(Spec("m1")), m2(Spec("m2")), m3(Spec("m3"));
  FfsFunctionBuilder b("fanin");
  auto x1 = m1.reg(b, {FfsFunctionBuilder::kInput});
  auto x2 = m2.reg(b, {FfsFunctionBuilder::kInput});
  m3.reg(b, {x1, x2});
  model::AppDag dag = std::move(b).Build();
  EXPECT_EQ(Edges(dag), (std::vector<std::pair<int, int>>{
                            {-1, 0}, {-1, 1}, {0, 2}, {1, 2}}));
}

TEST(FfsFunctionBuilderTest, ConditionalArmGetsProbability) {
  FfsModule m1(Spec("m1")), cond(Spec("cond"));
  FfsFunctionBuilder b("branch");
  auto x1 = m1.reg(b, {FfsFunctionBuilder::kInput});
  cond.reg(b, {x1}, /*exec_probability=*/0.25);
  model::AppDag dag = std::move(b).Build();
  EXPECT_DOUBLE_EQ(dag.component(1).exec_probability, 0.25);
  // The module object itself is untouched (reg copies the spec).
  EXPECT_DOUBLE_EQ(cond.spec().exec_probability, 1.0);
}

TEST(FfsFunctionBuilderTest, ComponentIdsFollowRegistrationOrder) {
  FfsModule m(Spec("m"));
  FfsFunctionBuilder b("ids");
  auto x1 = m.reg(b, {FfsFunctionBuilder::kInput});
  auto x2 = m.reg(b, {x1});
  EXPECT_EQ(x1.node, 0);
  EXPECT_EQ(x2.node, 1);
  model::AppDag dag = std::move(b).Build();
  EXPECT_EQ(dag.component(0).id, ComponentId(0));
  EXPECT_EQ(dag.component(1).id, ComponentId(1));
}

TEST(FfsFunctionBuilderTest, RejectsEmptyInputs) {
  FfsModule m(Spec("m"));
  FfsFunctionBuilder b("bad");
  EXPECT_THROW(m.reg(b, {}), FfsError);
}

TEST(FfsFunctionBuilderTest, RejectsForwardReferences) {
  FfsFunctionBuilder b("bad");
  FfsModule m(Spec("m"));
  FfsValue future{3};  // refers to a not-yet-registered node
  EXPECT_THROW(m.reg(b, {future}), FfsError);
}

TEST(FfsFunctionBuilderTest, BuiltDagValidates) {
  // The builder's output always passes AppDag's own validation; building
  // the paper's App 3 via the builder API matches the zoo's construction.
  using model::ComponentClass;
  const auto scale = model::ScaleFor(3, model::Variant::kSmall);
  FfsModule deblur(model::MakeComponent(ComponentClass::kDeblur, scale, 0));
  FfsModule sr(
      model::MakeComponent(ComponentClass::kSuperResolution, scale, 1));
  FfsModule bg(
      model::MakeComponent(ComponentClass::kBackgroundRemoval, scale, 2));
  FfsModule seg(
      model::MakeComponent(ComponentClass::kSegmentation, scale, 3));
  FfsModule cls(
      model::MakeComponent(ComponentClass::kClassification, scale, 4));

  FfsFunctionBuilder b("expanded_image_classification/small");
  auto x0 = deblur.reg(b, {FfsFunctionBuilder::kInput});
  auto x1 = sr.reg(b, {x0}, 0.5);
  auto x2 = bg.reg(b, {x1, x0});
  auto x3 = seg.reg(b, {x2});
  cls.reg(b, {x3});
  model::AppDag mine = std::move(b).Build();

  const model::AppDag zoo = model::BuildApp(3, model::Variant::kSmall);
  EXPECT_EQ(mine.size(), zoo.size());
  EXPECT_EQ(mine.TotalMemory(), zoo.TotalMemory());
  EXPECT_EQ(mine.TotalLatencyOnGpcs(1), zoo.TotalLatencyOnGpcs(1));
}

}  // namespace
}  // namespace fluidfaas::core
