// Sweep engine mechanics: grid expansion order, per-cell config synthesis,
// the variants axis, result placement by grid index, the FFS_JOBS knob's
// strict parsing, and the artifact path override. Determinism across job counts is pinned in
// harness_determinism_test.cc.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "common/error.h"
#include "harness/sweep.h"

namespace fluidfaas::harness {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig cfg;
  cfg.system = SystemKind::kFluidFaas;
  cfg.tier = trace::WorkloadTier::kLight;
  cfg.num_nodes = 1;
  cfg.gpus_per_node = 4;
  cfg.duration = Seconds(20);
  cfg.seed = 7;
  return cfg;
}

// RAII env var for the FFS_JOBS / FFS_SWEEP_OUT tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    if (prev != nullptr) saved_ = prev;
    had_ = prev != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(SweepSpecTest, EmptyAxesExpandToOneBaseCell) {
  SweepSpec spec;
  spec.base = TinyConfig();
  EXPECT_EQ(spec.size(), 1u);
  const auto points = spec.Points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].index, 0u);
  EXPECT_EQ(points[0].system, spec.base.system);
  EXPECT_EQ(points[0].tier, spec.base.tier);
  EXPECT_EQ(points[0].seed, spec.base.seed);
  EXPECT_EQ(points[0].load_factor, spec.base.load_factor);
  EXPECT_EQ(points[0].fault_rate, spec.base.faults.rate);
}

TEST(SweepSpecTest, GridExpandsRowMajorWithSystemInnermost) {
  SweepSpec spec;
  spec.base = TinyConfig();
  spec.tiers = {trace::WorkloadTier::kLight, trace::WorkloadTier::kMedium};
  spec.seeds = {10, 20, 30};
  spec.systems = {SystemKind::kEsg, SystemKind::kFluidFaas};
  ASSERT_EQ(spec.size(), 12u);
  const auto points = spec.Points();
  ASSERT_EQ(points.size(), 12u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
  // Nesting (outer -> inner): tier, load, fault rate, variant, seed, system.
  EXPECT_EQ(points[0].tier, trace::WorkloadTier::kLight);
  EXPECT_EQ(points[0].seed, 10u);
  EXPECT_EQ(points[0].system, SystemKind::kEsg);
  EXPECT_EQ(points[1].system, SystemKind::kFluidFaas);  // system flips first
  EXPECT_EQ(points[2].seed, 20u);                       // then seed
  EXPECT_EQ(points[2].system, SystemKind::kEsg);
  EXPECT_EQ(points[6].tier, trace::WorkloadTier::kMedium);  // tier last
  EXPECT_EQ(points[6].seed, 10u);
  EXPECT_EQ(points[11].tier, trace::WorkloadTier::kMedium);
  EXPECT_EQ(points[11].seed, 30u);
  EXPECT_EQ(points[11].system, SystemKind::kFluidFaas);
}

TEST(SweepSpecTest, VariantsNestBetweenFaultRateAndSeed) {
  SweepSpec spec;
  spec.base = TinyConfig();
  spec.fault_rates = {0.0, 0.1};
  spec.variants = {{"a", nullptr}, {"b", nullptr}};
  spec.seeds = {10, 20};
  ASSERT_EQ(spec.size(), 8u);
  const auto points = spec.Points();
  ASSERT_EQ(points.size(), 8u);
  EXPECT_EQ(points[0].variant, "a");
  EXPECT_EQ(points[1].variant, "a");  // seed flips first
  EXPECT_EQ(points[1].seed, 20u);
  EXPECT_EQ(points[2].variant, "b");  // then variant
  EXPECT_EQ(points[2].variant_index, 1u);
  EXPECT_EQ(points[2].seed, 10u);
  EXPECT_EQ(points[2].fault_rate, 0.0);
  EXPECT_EQ(points[4].variant, "a");  // fault rate is outside
  EXPECT_EQ(points[4].fault_rate, 0.1);
}

TEST(SweepSpecTest, MakeConfigAppliesAxesThenVariant) {
  SweepSpec spec;
  spec.base = TinyConfig();
  spec.base.load_factor = 0.5;
  spec.systems = {SystemKind::kEsg};
  spec.fault_rates = {0.25};
  spec.variants = {{"plain", nullptr},
                   {"wide", [](ExperimentConfig& cfg) {
                      // The variant sees axis values already applied and
                      // may refine anything.
                      EXPECT_EQ(cfg.faults.rate, 0.25);
                      cfg.gpus_per_node = 2;
                    }}};
  const auto points = spec.Points();
  ASSERT_EQ(points.size(), 2u);
  const ExperimentConfig plain = spec.MakeConfig(points[0]);
  EXPECT_EQ(plain.gpus_per_node, spec.base.gpus_per_node);
  const ExperimentConfig cfg = spec.MakeConfig(points[1]);
  EXPECT_EQ(cfg.system, SystemKind::kEsg);
  EXPECT_EQ(cfg.faults.rate, 0.25);
  EXPECT_EQ(cfg.load_factor, 0.5);  // untouched base value survives
  EXPECT_EQ(cfg.gpus_per_node, 2);  // the variant ran last
}

TEST(SweepSpecTest, VariantsNeedALabel) {
  SweepSpec spec;
  spec.base = TinyConfig();
  spec.variants = {{"", nullptr}};
  EXPECT_THROW(spec.Points(), FfsError);
}

// A variant that sets a system and a duration per cell.
SweepVariant SystemFor(const char* label, SystemKind system, double seconds) {
  return {label, [system, seconds](ExperimentConfig& cfg) {
            cfg.system = system;
            cfg.duration = Seconds(seconds);
          }};
}

TEST(SweepRunTest, ResultsLandByGridIndexNotCompletionOrder) {
  SweepSpec spec;
  spec.base = TinyConfig();
  // Mixed-duration cells: the short ones finish first on a pool, yet the
  // outcome must still be ordered by grid index.
  spec.variants = {SystemFor("infless", SystemKind::kInfless, 30.0),
                   SystemFor("esg", SystemKind::kEsg, 20.0),
                   SystemFor("fluidfaas", SystemKind::kFluidFaas, 10.0)};
  const SweepOutcome o = RunSweep(spec, 3);
  ASSERT_EQ(o.cells.size(), 3u);
  EXPECT_EQ(o.cells[0].result.system, "INFless");
  EXPECT_EQ(o.cells[1].result.system, "ESG");
  EXPECT_EQ(o.cells[2].result.system, "FluidFaaS");
  EXPECT_EQ(o.cells[2].point.variant, "fluidfaas");
  EXPECT_EQ(o.jobs, 3);
  EXPECT_GT(o.wall_seconds, 0.0);
  EXPECT_GT(o.cell_seconds_total, 0.0);
  EXPECT_GT(o.Speedup(), 0.0);
}

TEST(SweepRunTest, CellExceptionsPropagateAfterJoin) {
  SweepSpec spec;
  spec.base = TinyConfig();
  spec.seeds = {1, 2};
  // One poisoned variant: a custom trace naming a function the workload
  // does not have, which the run-context build rejects.
  spec.variants = {{"clean", nullptr},
                   {"poisoned", [](ExperimentConfig& cfg) {
                      cfg.custom_trace.push_back(
                          {Seconds(1), FunctionId(999999)});
                    }}};
  EXPECT_THROW(RunSweep(spec, 4), FfsError);
}

TEST(SweepJsonTest, VariantKeyOnlyWithAVariantsAxis) {
  SweepSpec spec;
  spec.base = TinyConfig();
  spec.base.duration = Seconds(5);
  std::ostringstream plain;
  WriteSweepJson(RunSweep(spec, 1), plain, false);
  EXPECT_EQ(plain.str().find("\"variant\""), std::string::npos);

  spec.variants = {{"fifo/none", nullptr}};
  std::ostringstream labelled;
  WriteSweepJson(RunSweep(spec, 1), labelled, false);
  EXPECT_NE(labelled.str().find("\"variant\":\"fifo/none\""),
            std::string::npos)
      << labelled.str().substr(0, 200);
}

TEST(SweepJsonTest, UnwritablePathThrows) {
  const std::string path = ::testing::TempDir() + "no_such_dir/x.json";
  EXPECT_THROW(WriteSweepJsonFile(SweepOutcome{}, path), FfsError);
}

TEST(SweepJobsTest, FfsJobsEnvIsStrictlyParsed) {
  {
    ScopedEnv env("FFS_JOBS", "3");
    EXPECT_EQ(DefaultJobs(), 3);
  }
  {
    ScopedEnv env("FFS_JOBS", nullptr);
    EXPECT_GE(DefaultJobs(), 1);  // hardware default
  }
  for (const char* bad : {"", "abc", "2x", "0", "-4", "1.5", "99999"}) {
    ScopedEnv env("FFS_JOBS", bad);
    EXPECT_THROW(DefaultJobs(), FfsError) << "FFS_JOBS=\"" << bad << "\"";
  }
}

TEST(SweepJobsTest, SweepOutPathHonorsEnvOverride) {
  {
    ScopedEnv env("FFS_SWEEP_OUT", "custom_sweep.json");
    EXPECT_EQ(SweepOutPath(), "custom_sweep.json");
  }
  {
    ScopedEnv env("FFS_SWEEP_OUT", nullptr);
    EXPECT_EQ(SweepOutPath(), "BENCH_sweep.json");
    EXPECT_EQ(SweepOutPath("other.json"), "other.json");
  }
  {
    ScopedEnv env("FFS_SWEEP_OUT", "");  // empty = unset
    EXPECT_EQ(SweepOutPath(), "BENCH_sweep.json");
  }
}

}  // namespace
}  // namespace fluidfaas::harness
