// The scheduler table: every SystemKind has one display name, one CLI name
// and one bundle factory, and platform::MakeSchedulerBundle resolves the
// display names through it. The table is constant, so parallel sweep
// workers may resolve bundles concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "harness/experiment.h"
#include "platform/registry.h"

namespace fluidfaas::platform {
namespace {

using harness::SystemKind;

const std::vector<SystemKind> kAllKinds = {
    SystemKind::kFluidFaas, SystemKind::kEsg, SystemKind::kInfless,
    SystemKind::kRepartition, SystemKind::kFluidFaasDistributed};

TEST(PlatformRegistryTest, UnknownSchedulerThrows) {
  EXPECT_THROW(MakeSchedulerBundle("no-such-scheduler"), FfsError);
  // Resolution is by display name, not by CLI name.
  EXPECT_THROW(MakeSchedulerBundle("fluidfaas"), FfsError);
}

TEST(PlatformRegistryTest, EveryKindResolvesByNameAndByKind) {
  for (SystemKind kind : kAllKinds) {
    const char* name = harness::Name(kind);
    PolicyBundle by_name = MakeSchedulerBundle(name);
    EXPECT_NE(by_name.routing, nullptr) << name;
    EXPECT_NE(by_name.scaling, nullptr) << name;
    PolicyBundle by_kind = harness::MakeBundle(kind);
    EXPECT_NE(by_kind.routing, nullptr) << name;
    EXPECT_NE(by_kind.scaling, nullptr) << name;
  }
}

TEST(PlatformRegistryTest, CliNamesParseToTheirKinds) {
  EXPECT_EQ(harness::ParseSystem("fluidfaas"), SystemKind::kFluidFaas);
  EXPECT_EQ(harness::ParseSystem("esg"), SystemKind::kEsg);
  EXPECT_EQ(harness::ParseSystem("infless"), SystemKind::kInfless);
  EXPECT_EQ(harness::ParseSystem("repartition"), SystemKind::kRepartition);
  EXPECT_EQ(harness::ParseSystem("distributed"),
            SystemKind::kFluidFaasDistributed);
  EXPECT_THROW(harness::ParseSystem("FluidFaaS"), FfsError);
  EXPECT_THROW(harness::ParseSystem("all"), FfsError);
}

// Many threads resolving at once: every bundle comes back complete.
TEST(PlatformRegistryTest, ConcurrentResolveIsSafe) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> resolved{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &resolved, &failed] {
      for (int i = 0; i < kIters; ++i) {
        const SystemKind kind = kAllKinds[static_cast<std::size_t>(t + i) %
                                          kAllKinds.size()];
        PolicyBundle b = MakeSchedulerBundle(harness::Name(kind));
        if (b.routing == nullptr || b.scaling == nullptr) failed = true;
        resolved.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(resolved.load(), kThreads * kIters);
}

}  // namespace
}  // namespace fluidfaas::platform
