#include "common/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "harness/json_report.h"
#include "harness/sweep.h"

namespace fluidfaas {
namespace {

TEST(JsonWriterTest, FlatObject) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").Value("fluidfaas");
  w.Key("rps").Value(12.5);
  w.Key("count").Value(std::int64_t{42});
  w.Key("ok").Value(true);
  w.EndObject();
  EXPECT_EQ(w.Take(),
            R"({"name":"fluidfaas","rps":12.5,"count":42,"ok":true})");
}

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("xs").BeginArray();
  w.Value(std::int64_t{1});
  w.Value(std::int64_t{2});
  w.BeginObject();
  w.Key("y").Value("z");
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.Take(), R"({"xs":[1,2,{"y":"z"}]})");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").Value("a\"b\\c\nd\te");
  w.EndObject();
  EXPECT_EQ(w.Take(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriterTest, AppendJsonEscapedWritesTheBodyOnly) {
  std::string out = "x";
  AppendJsonEscaped(out, "a\"\r\x01");
  EXPECT_EQ(out, "xa\\\"\\r\\u0001");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::nan(""));
  w.Value(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.Take(), "[null,null]");
}

TEST(JsonWriterTest, StructuralMisuseThrows) {
  {
    JsonWriter w;
    w.BeginObject();
    EXPECT_THROW(w.EndArray(), FfsError);
  }
  {
    JsonWriter w;
    w.BeginObject();
    w.Key("a");
    EXPECT_THROW(w.Key("b"), FfsError);
  }
  {
    JsonWriter w;
    w.BeginObject();
    EXPECT_THROW(w.Value(1), FfsError);  // member without a key
  }
  {
    JsonWriter w;
    w.BeginArray();
    EXPECT_THROW(w.Take(), FfsError);  // unterminated
  }
}

TEST(JsonReportTest, SerializesAnExperimentResult) {
  harness::ExperimentConfig cfg;
  cfg.system = harness::SystemKind::kFluidFaas;
  cfg.tier = trace::WorkloadTier::kLight;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  cfg.duration = Seconds(20);
  cfg.load_factor = 0.2;
  auto res = harness::RunExperiment(cfg);
  const std::string json = harness::ResultToJson(res);
  EXPECT_NE(json.find("\"system\":\"FluidFaaS\""), std::string::npos);
  EXPECT_NE(json.find("\"tier\":\"light\""), std::string::npos);
  EXPECT_NE(json.find("\"per_function\":["), std::string::npos);
  EXPECT_NE(json.find("\"pipelines_launched\""), std::string::npos);
  // Balanced braces (cheap structural sanity).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(JsonReportTest, ArrayOfResults) {
  harness::ExperimentConfig cfg;
  cfg.tier = trace::WorkloadTier::kLight;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 1;
  cfg.duration = Seconds(10);
  cfg.load_factor = 0.1;
  harness::SweepSpec spec;
  spec.base = cfg;
  spec.systems = harness::kComparisonSystems;
  std::vector<harness::ExperimentResult> results;
  for (harness::SweepCell& c : harness::RunSweep(spec).cells) {
    results.push_back(std::move(c.result));
  }
  const std::string json = harness::ResultsToJson(results);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("INFless"), std::string::npos);
  EXPECT_NE(json.find("ESG"), std::string::npos);
}

TEST(CustomTraceTest, HarnessReplaysProvidedTrace) {
  harness::ExperimentConfig cfg;
  cfg.system = harness::SystemKind::kFluidFaas;
  cfg.tier = trace::WorkloadTier::kLight;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 2;
  cfg.duration = Seconds(30);
  for (int i = 0; i < 12; ++i) {
    cfg.custom_trace.push_back(
        {Seconds(i), FunctionId(i % 4)});
  }
  // One invocation beyond the horizon must be dropped.
  cfg.custom_trace.push_back({Seconds(40), FunctionId(0)});
  auto res = harness::RunExperiment(cfg);
  EXPECT_EQ(res.recorder->total_requests(), 12u);
  EXPECT_EQ(res.recorder->completed_requests(), 12u);
  EXPECT_NEAR(res.offered_rps, 12.0 / 30.0, 1e-9);
}

TEST(CustomTraceTest, UnknownFunctionIdThrows) {
  harness::ExperimentConfig cfg;
  cfg.tier = trace::WorkloadTier::kLight;
  cfg.custom_trace.push_back({0, FunctionId(99)});
  EXPECT_THROW(harness::RunExperiment(cfg), FfsError);
}

}  // namespace
}  // namespace fluidfaas
