#include "model/app.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "model/zoo.h"

namespace fluidfaas::model {
namespace {

ComponentSpec Comp(int idx, Bytes mem, SimDuration t, Bytes out = MiB(10)) {
  ComponentSpec c;
  c.id = ComponentId(idx);
  std::string name = "c";
  name += std::to_string(idx);
  c.name = std::move(name);
  c.cls = ComponentClass::kClassification;
  c.weights = mem / 2;
  c.activations = mem - mem / 2;
  c.latency_1gpc = t;
  c.serial_fraction = 0.1;
  c.output_bytes = out;
  return c;
}

TEST(AppDagTest, ChainStructure) {
  AppDag dag("chain",
             {Comp(0, GiB(2), Millis(100)), Comp(1, GiB(3), Millis(200)),
              Comp(2, GiB(1), Millis(50))},
             {{-1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(dag.size(), 3);
  EXPECT_EQ(dag.TotalMemory(), GiB(6));
  EXPECT_EQ(dag.TotalLatencyOnGpcs(1), Millis(350));
  ASSERT_EQ(dag.edges().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(dag.edges()[static_cast<std::size_t>(i)].from, i - 1);
    EXPECT_EQ(dag.edges()[static_cast<std::size_t>(i)].to, i);
  }
}

TEST(AppDagTest, CutBytesCountsCrossingEdges) {
  // 0 -> 1 -> 2 with a skip edge 0 -> 2.
  AppDag dag("skip",
             {Comp(0, GiB(1), Millis(10), MiB(100)),
              Comp(1, GiB(1), Millis(10), MiB(30)),
              Comp(2, GiB(1), Millis(10), MiB(1))},
             {{-1, 0}, {0, 1}, {1, 2}, {0, 2}});
  // Cut between 0 and 1: edges 0->1 and 0->2 cross: 2 x 100 MB.
  EXPECT_EQ(dag.CutBytes(1), 2 * MiB(100));
  // Cut between 1 and 2: edges 1->2 (30 MB) and 0->2 (100 MB).
  EXPECT_EQ(dag.CutBytes(2), MiB(30) + MiB(100));
}

TEST(AppDagTest, CutBytesBoundsChecked) {
  AppDag dag("one", {Comp(0, GiB(1), Millis(10))}, {{-1, 0}});
  EXPECT_THROW(dag.CutBytes(0), FfsError);
  EXPECT_THROW(dag.CutBytes(1), FfsError);
}

TEST(AppDagTest, RejectsNonTopologicalOrder) {
  EXPECT_THROW(AppDag("bad",
                      {Comp(0, GiB(1), Millis(10)), Comp(1, GiB(1),
                                                         Millis(10))},
                      {{1, 0}}),
               FfsError);
  // Self loop.
  EXPECT_THROW(AppDag("self", {Comp(0, GiB(1), Millis(10))}, {{0, 0}}),
               FfsError);
}

TEST(AppDagTest, RejectsOutOfRangeEdges) {
  EXPECT_THROW(
      AppDag("oob", {Comp(0, GiB(1), Millis(10))}, {{-1, 5}}), FfsError);
  EXPECT_THROW(
      AppDag("oob2", {Comp(0, GiB(1), Millis(10))}, {{-2, 0}}), FfsError);
}

TEST(AppDagTest, RejectsEmptyAndDegenerateComponents) {
  EXPECT_THROW(AppDag("empty", {}, {}), FfsError);
  ComponentSpec zero_mem = Comp(0, GiB(1), Millis(10));
  zero_mem.weights = 0;
  zero_mem.activations = 0;
  EXPECT_THROW(AppDag("nomem", {zero_mem}, {{-1, 0}}), FfsError);
  ComponentSpec zero_lat = Comp(0, GiB(1), Millis(10));
  zero_lat.latency_1gpc = 0;
  EXPECT_THROW(AppDag("nolat", {zero_lat}, {{-1, 0}}), FfsError);
  ComponentSpec bad_prob = Comp(0, GiB(1), Millis(10));
  bad_prob.exec_probability = 0.0;
  EXPECT_THROW(AppDag("noprob", {bad_prob}, {{-1, 0}}), FfsError);
}

TEST(AppDagTest, ExpectedLatencyUsesBranchProbability) {
  ComponentSpec cond = Comp(1, GiB(1), Millis(100));
  cond.exec_probability = 0.5;
  AppDag dag("branch",
             {Comp(0, GiB(1), Millis(100)), cond,
              Comp(2, GiB(1), Millis(100))},
             {{-1, 0}, {0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(dag.TotalLatencyOnGpcs(1), Millis(250));
}

TEST(VariantTest, Names) {
  EXPECT_STREQ(Name(Variant::kSmall), "small");
  EXPECT_STREQ(Name(Variant::kMedium), "medium");
  EXPECT_STREQ(Name(Variant::kLarge), "large");
}

}  // namespace
}  // namespace fluidfaas::model
