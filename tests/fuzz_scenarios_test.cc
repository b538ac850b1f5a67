// Randomized scenario tests: hammer the platforms with random traffic,
// random cluster shapes, and random mid-run perturbations, asserting the
// system-wide invariants that must survive anything:
//   * strong isolation (one instance per slice — checked inside Cluster),
//   * conservation (every submitted request completes exactly once; under
//     an enforcement timeout, it reaches exactly one terminal state),
//   * accounting sanity (busy time <= bound time <= wall time per slice),
//   * per-request timing adds up.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/esg_platform.h"
#include "baselines/repartition_platform.h"
#include "common/rng.h"
#include "core/ffs_distributed.h"
#include "core/ffs_platform.h"
#include "metrics/recorder.h"
#include "model/zoo.h"

namespace fluidfaas {
namespace {

using platform::FunctionSpec;
using platform::MakeFunctionSpec;
using platform::PlatformConfig;

gpu::MigPartition RandomPartition(Rng& rng) {
  const auto all = gpu::EnumerateMaximalPartitions();
  return all[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(all.size()) - 1))];
}

/// Random functions that the *monolithic* platforms can host at all on the
/// chosen partition (a function bigger than the partition's largest slice
/// would, correctly, never complete there — that case is covered by the
/// targeted fragmentation tests instead).
std::vector<FunctionSpec> RandomFunctions(Rng& rng,
                                          const gpu::MigPartition& part) {
  Bytes largest = 0;
  for (const auto& pl : part.placements()) {
    largest = std::max(largest, gpu::MemBytes(pl.profile));
  }
  std::vector<FunctionSpec> fns;
  const int n = static_cast<int>(rng.UniformInt(2, 6));
  int id = 0;
  int guard = 0;
  while (id < n && guard++ < 100) {
    const int app = static_cast<int>(rng.UniformInt(0, 3));
    auto variant = static_cast<model::Variant>(rng.UniformInt(0, 1));
    auto dag = model::BuildApp(app, variant);
    if (dag.TotalMemory() > largest) continue;
    fns.push_back(MakeFunctionSpec(FunctionId(id++), app, variant,
                                   std::move(dag), rng.Uniform(1.2, 3.0)));
  }
  if (fns.empty()) {
    fns.push_back(MakeFunctionSpec(FunctionId(0), 0, model::Variant::kSmall,
                                   model::BuildApp(0, model::Variant::kSmall),
                                   1.5));
  }
  return fns;
}

void RunScenario(platform::PolicyBundle bundle, std::uint64_t seed) {
  Rng rng(seed);
  sim::Simulator sim;
  const gpu::MigPartition part = RandomPartition(rng);
  auto cluster = gpu::Cluster::Uniform(
      static_cast<int>(rng.UniformInt(1, 2)),
      static_cast<int>(rng.UniformInt(1, 4)), part);
  metrics::Recorder recorder(cluster);
  auto fns = RandomFunctions(rng, part);
  PlatformConfig config;
  config.seed = seed;
  // Odd seeds enforce a timeout, so requests also end timed out mid-queue.
  if (seed % 2 == 1) config.request_timeout_scale = rng.Uniform(0.5, 4.0);
  platform::PlatformCore plat(sim, cluster, fns, config, std::move(bundle));
  recorder.SubscribeTo(sim.bus());
  plat.Start();

  const int requests = static_cast<int>(rng.UniformInt(50, 400));
  const SimTime span = Seconds(rng.Uniform(20, 90));
  for (int i = 0; i < requests; ++i) {
    const auto fn = FunctionId(static_cast<std::int32_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(fns.size()) - 1)));
    sim.At(rng.UniformInt(0, span), [&plat, fn] { plat.Submit(fn); });
  }
  // Run long enough for keep-alive expiries to unblock any starved
  // function on scarce clusters.
  ASSERT_NO_THROW(sim.RunUntil(span + Minutes(12)));
  plat.Stop();
  recorder.Close(sim.Now());

  // Conservation: everything submitted completed exactly once, or, under
  // a timeout, reached exactly one terminal state: completed (perhaps
  // timed out mid-execution) or timed out mid-queue. Nothing crashes and
  // nothing is shed here, so no request is abandoned or rejected.
  if (config.request_timeout_scale > 0.0) {
    EXPECT_EQ(recorder.finished_requests(),
              static_cast<std::size_t>(requests))
        << "seed " << seed;
    EXPECT_EQ(recorder.abandoned_requests(), 0u);
    EXPECT_EQ(recorder.rejected_requests(), 0u);
    EXPECT_LE(recorder.aborted_requests(), recorder.timeouts());
  } else {
    EXPECT_EQ(recorder.completed_requests(),
              static_cast<std::size_t>(requests))
        << "seed " << seed;
  }

  // Accounting: per-slice busy <= bound <= wall.
  for (const auto& s : recorder.PerSliceTotals()) {
    EXPECT_LE(s.busy, s.bound);
    EXPECT_LE(s.bound, recorder.end_time());
  }

  // Timing: for completed requests, components sum to at most the latency
  // (pipeline stages overlap transfers, so equality is not required), and
  // every piece is non-negative.
  for (const auto& rec : recorder.records()) {
    ASSERT_NE(rec.done(), rec.aborted) << "seed " << seed;
    if (rec.aborted) {
      EXPECT_TRUE(rec.timed_out);
      continue;
    }
    EXPECT_GE(rec.queue_time, 0);
    EXPECT_GE(rec.load_time, 0);
    EXPECT_GE(rec.exec_time, 0);
    EXPECT_GE(rec.transfer_time, 0);
    EXPECT_GT(rec.exec_time, 0);  // something actually ran
    EXPECT_LE(rec.queue_time + rec.load_time + rec.exec_time +
                  rec.transfer_time,
              rec.Latency() + Millis(1));
  }
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, FluidFaasSurvives) {
  RunScenario(core::MakeFluidFaasBundle(), GetParam());
}

TEST_P(FuzzSeedTest, EsgSurvives) {
  RunScenario(baselines::MakeEsgBundle(), GetParam() + 1000);
}

TEST_P(FuzzSeedTest, InflessSurvives) {
  RunScenario(baselines::MakeInflessBundle(), GetParam() + 2000);
}

TEST_P(FuzzSeedTest, RepartitionSurvives) {
  RunScenario(baselines::MakeRepartitionBundle(), GetParam() + 3000);
}

TEST_P(FuzzSeedTest, DistributedFluidFaasSurvives) {
  RunScenario(core::MakeDistributedBundle(), GetParam() + 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace fluidfaas
