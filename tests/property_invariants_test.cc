// Property tests pitting library components against brute-force reference
// implementations on randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "core/pipeline.h"
#include "gpu/cluster.h"
#include "gpu/cluster_view.h"
#include "metrics/recorder.h"
#include "model/zoo.h"
#include "platform/placement.h"
#include "platform/platform.h"
#include "platform/policy.h"

namespace fluidfaas {
namespace {

// --- TimeWeightedSignal vs brute-force integration -------------------------

TEST(TimeWeightedSignalProperty, MeanMatchesBruteForceIntegration) {
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    TimeWeightedSignal sig;
    std::vector<std::pair<SimTime, double>> points;
    SimTime t = 0;
    for (int i = 0; i < 30; ++i) {
      t += rng.UniformInt(1, Seconds(5.0));
      const double v = rng.Uniform(0.0, 100.0);
      sig.Record(t, v);
      points.emplace_back(t, v);
    }
    const SimTime end = t + rng.UniformInt(1, Seconds(5.0));
    sig.Close(end);

    // Random query windows, compared to a straightforward scan.
    for (int q = 0; q < 10; ++q) {
      // The brute force is O(window x points); keep windows small.
      SimTime b = rng.UniformInt(0, end - 1);
      SimTime e = b + rng.UniformInt(1, std::min<SimTime>(end - b,
                                                          Seconds(0.02)));
      double integral = 0.0;
      for (SimTime step = b; step < e; ++step) {
        double v = 0.0;
        for (const auto& [pt, pv] : points) {
          if (pt <= step) v = pv;
        }
        integral += v;
      }
      EXPECT_NEAR(sig.MeanOver(b, e),
                  integral / static_cast<double>(e - b), 1e-6)
          << "trial " << trial;
    }
  }
}

TEST(TimeWeightedSignalProperty, FractionAtOrBelowComplement) {
  Rng rng(405);
  for (int trial = 0; trial < 20; ++trial) {
    TimeWeightedSignal sig;
    SimTime t = 0;
    for (int i = 0; i < 20; ++i) {
      t += rng.UniformInt(1, Seconds(2.0));
      sig.Record(t, rng.Uniform(0.0, 10.0));
    }
    const SimTime end = t + Seconds(1.0);
    sig.Close(end);
    const double thr = rng.Uniform(0.0, 10.0);
    const double below = sig.FractionAtOrBelow(thr, 0, end);
    EXPECT_GE(below, 0.0);
    EXPECT_LE(below, 1.0);
    // Monotone in the threshold.
    EXPECT_LE(below, sig.FractionAtOrBelow(thr + 1.0, 0, end) + 1e-12);
  }
}

// --- Cluster bind/release vs a reference occupancy map ---------------------

TEST(ClusterProperty, RandomBindReleaseMatchesReferenceModel) {
  Rng rng(406);
  for (int trial = 0; trial < 15; ++trial) {
    auto part = gpu::EnumerateMaximalPartitions()[static_cast<std::size_t>(
        rng.UniformInt(0, 18))];
    gpu::Cluster cluster = gpu::Cluster::Uniform(1, 3, part);
    std::map<std::int32_t, std::int32_t> reference;  // slice -> instance

    for (int step = 0; step < 300; ++step) {
      const auto all = cluster.AllSlices();
      const SliceId sid = all[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(all.size()) - 1))];
      if (reference.count(sid.value)) {
        if (rng.Chance(0.7)) {
          cluster.Release(sid, InstanceId(reference[sid.value]));
          reference.erase(sid.value);
        } else {
          // Double bind must throw and change nothing.
          EXPECT_THROW(cluster.Bind(sid, InstanceId(9999)), FfsError);
        }
      } else {
        const auto inst = static_cast<std::int32_t>(step + 1);
        cluster.Bind(sid, InstanceId(inst));
        reference[sid.value] = inst;
      }
      // Invariants after every step.
      int bound_gpcs = 0;
      for (SliceId s : cluster.AllSlices()) {
        const auto& slice = cluster.slice(s);
        if (reference.count(s.value)) {
          EXPECT_EQ(slice.occupant.value, reference[s.value]);
          bound_gpcs += slice.gpcs();
        } else {
          EXPECT_TRUE(slice.free());
        }
      }
      EXPECT_EQ(cluster.BoundGpcs(), bound_gpcs);
      EXPECT_EQ(gpu::ClusterView(cluster).FreeSlices().size(),
                cluster.num_slices() - reference.size());
    }
  }
}

TEST(ClusterProperty, RepartitionPreservesOtherGpus) {
  Rng rng(407);
  gpu::Cluster cluster = gpu::Cluster::Uniform(1, 3, gpu::DefaultPartition());
  // Bind something on GPU 1 and 2.
  std::vector<std::pair<SliceId, InstanceId>> kept;
  for (SliceId sid : cluster.AllSlices()) {
    const auto& s = cluster.slice(sid);
    if (s.gpu.value > 0 && rng.Chance(0.5)) {
      const InstanceId inst(sid.value + 100);
      cluster.Bind(sid, inst);
      kept.emplace_back(sid, inst);
    }
  }
  const auto parts = gpu::EnumerateMaximalPartitions();
  for (int round = 0; round < 5; ++round) {
    const auto& target = parts[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(parts.size()) - 1))];
    cluster.RepartitionGpu(GpuId(0), target);
    // GPU 0 swapped; everything bound elsewhere is untouched.
    for (const auto& [sid, inst] : kept) {
      EXPECT_EQ(cluster.slice(sid).occupant, inst);
    }
    EXPECT_EQ(cluster.gpu(GpuId(0)).partition().Profiles(),
              target.Profiles());
  }
}

// --- ClusterView overlay vs a brute-force reference -------------------------

TEST(ClusterViewProperty, OverlayQueriesMatchReferenceModel) {
  Rng rng(409);
  for (int trial = 0; trial < 10; ++trial) {
    gpu::Cluster cluster =
        gpu::Cluster::Uniform(2, 2, gpu::DefaultPartition());
    // Random live state: some slices bound, some failed.
    std::int32_t next_inst = 1;
    for (SliceId sid : cluster.AllSlices()) {
      if (rng.Chance(0.4)) {
        cluster.Bind(sid, InstanceId(next_inst++));
      } else if (rng.Chance(0.2)) {
        cluster.MarkFailed(sid);
      }
    }
    gpu::ClusterView view(cluster);
    std::set<std::int32_t> reserved, planned;
    const auto all = cluster.AllSlices();
    std::map<std::int32_t, std::int32_t> live_before;  // slice -> occupant
    for (SliceId s : all) live_before[s.value] = cluster.slice(s).occupant.value;
    for (int step = 0; step < 60; ++step) {
      const SliceId sid = all[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(all.size()) - 1))];
      if (view.Allocatable(sid) && rng.Chance(0.5)) {
        view.Reserve(sid);
        reserved.insert(sid.value);
      } else if (!cluster.slice(sid).free() && rng.Chance(0.5)) {
        view.MarkPlannedFree(sid);
        planned.insert(sid.value);
      }
      // Reference allocatable: reservation wins, then the planned-free
      // overlay (failure still masks it), then live state.
      const auto ref_alloc = [&](SliceId s) {
        if (reserved.count(s.value)) return false;
        if (planned.count(s.value)) return !cluster.IsFailed(s);
        return cluster.slice(s).allocatable();
      };
      std::vector<SliceId> expect;
      for (SliceId s : all) {
        if (ref_alloc(s)) expect.push_back(s);
      }
      EXPECT_EQ(view.FreeSlices(), expect) << "trial " << trial;
      for (gpu::MigProfile p : gpu::kAllProfiles) {
        std::vector<SliceId> expect_p;
        for (SliceId s : expect) {
          if (cluster.slice(s).profile() == p) expect_p.push_back(s);
        }
        EXPECT_EQ(view.FreeSlices(p), expect_p);
      }
      for (int n = 0; n < cluster.num_nodes(); ++n) {
        std::vector<SliceId> expect_n;
        for (SliceId s : expect) {
          if (cluster.slice(s).node == NodeId(n)) expect_n.push_back(s);
        }
        EXPECT_EQ(view.FreeSlicesOnNode(NodeId(n)), expect_n);
      }
      const Bytes need = GiB(rng.UniformInt(1, 80));
      std::optional<SliceId> smallest;
      for (SliceId s : expect) {
        if (cluster.slice(s).memory() < need) continue;
        if (!smallest ||
            cluster.slice(s).gpcs() < cluster.slice(*smallest).gpcs()) {
          smallest = s;  // expect is id-ordered: ties keep the lowest id
        }
      }
      EXPECT_EQ(view.SmallestFreeSliceWithMemory(need), smallest);
      // Node-scoped: the same rule over that node's slices only.
      for (int n = 0; n < cluster.num_nodes(); ++n) {
        std::optional<SliceId> on_node;
        for (SliceId s : expect) {
          if (cluster.slice(s).node != NodeId(n)) continue;
          if (cluster.slice(s).memory() < need) continue;
          if (!on_node ||
              cluster.slice(s).gpcs() < cluster.slice(*on_node).gpcs()) {
            on_node = s;
          }
        }
        EXPECT_EQ(view.SmallestFreeSliceWithMemory(need, NodeId(n)), on_node);
      }
    }
    // The overlay never leaked into live state: occupancy is untouched.
    for (SliceId s : all) {
      EXPECT_EQ(cluster.slice(s).occupant.value, live_before[s.value]);
    }
  }
}

// --- Placement plan/commit fuzz ---------------------------------------------

std::vector<platform::FunctionSpec> FuzzFunctions() {
  std::vector<platform::FunctionSpec> fns;
  int id = 0;
  for (auto& dag : model::BuildStudyApps(model::Variant::kSmall)) {
    const int app = id;
    fns.push_back(platform::MakeFunctionSpec(FunctionId(id++), app,
                                             model::Variant::kSmall, dag,
                                             1.5));
  }
  return fns;
}

class FuzzRouting final : public platform::RoutingPolicy {
 public:
  bool Route(platform::PlatformCore&, RequestId, FunctionId) override {
    return false;
  }
};

class FuzzScaling final : public platform::ScalingPolicy {
 public:
  void Tick(platform::PlatformCore&) override {}
};

platform::PolicyBundle FuzzBundle() {
  platform::PolicyBundle b;
  b.routing = std::make_unique<FuzzRouting>();
  b.scaling = std::make_unique<FuzzScaling>();
  return b;
}

// Randomized racing plans with injected drift (slice failures/repairs
// between plan and commit): every Commit either applies fully — spawned
// instances bound to exactly their planned slices — or aborts with a typed
// cause leaving occupancy byte-identical.
TEST(PlanCommitProperty, RacingPlansCommitAtomicallyUnderDrift) {
  Rng rng(410);
  for (int trial = 0; trial < 6; ++trial) {
    sim::Simulator sim;
    gpu::Cluster cluster =
        gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition());
    metrics::Recorder recorder(cluster);
    recorder.SubscribeTo(sim.bus());
    platform::PlatformCore plat(sim, cluster, FuzzFunctions(),
                                platform::PlatformConfig{}, FuzzBundle());
    const auto num_fns = static_cast<std::int64_t>(plat.functions().size());
    std::size_t attempts = 0;
    std::size_t committed_total = 0;

    for (int round = 0; round < 30; ++round) {
      // 1–3 racers plan off independent snapshots of the same state, so
      // overlapping picks surface as kSliceConflict at commit time.
      std::vector<platform::PlacementPlan> plans;
      const std::int64_t racers = rng.UniformInt(1, 3);
      for (std::int64_t r = 0; r < racers; ++r) {
        gpu::ClusterView view(cluster);
        const FunctionId fn(
            static_cast<std::int32_t>(rng.UniformInt(0, num_fns - 1)));
        auto pipeline =
            core::MonolithicPlanOnSmallestSlice(plat.function(fn).dag, view);
        if (!pipeline) continue;
        plans.push_back(
            platform::SpawnPlan(fn, std::move(*pipeline), false));
      }
      // Drift between plan and commit.
      if (rng.Chance(0.35)) {
        const auto free = gpu::ClusterView(cluster).FreeSlices();
        if (!free.empty()) {
          cluster.MarkFailed(free[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(free.size()) - 1))]);
        }
      }
      if (rng.Chance(0.35)) {
        for (SliceId s : cluster.AllSlices()) {
          if (cluster.IsFailed(s)) {
            cluster.Repair(s);
            break;
          }
        }
      }

      const std::size_t before_insts = plat.AllInstances().size();
      std::size_t committed = 0;
      for (const auto& p : plans) {
        ++attempts;
        const auto snapshot = gpu::ClusterView(cluster).FreeSlices();
        const platform::CommitResult result = plat.Commit(p);
        if (result.ok()) {
          ++committed;
          EXPECT_FALSE(result.spawned.empty());
        } else {
          EXPECT_NE(result.cause, sim::PlanAbortCause::kNone);
          EXPECT_TRUE(result.spawned.empty());
          EXPECT_EQ(gpu::ClusterView(cluster).FreeSlices(), snapshot)
              << "aborted commit mutated occupancy";
        }
      }
      committed_total += committed;
      EXPECT_EQ(plat.AllInstances().size(), before_insts + committed);
      // Strong isolation: every live instance holds exactly its planned
      // slices.
      for (platform::Instance* inst : plat.AllInstances()) {
        for (const auto& stage : inst->plan().stages) {
          EXPECT_EQ(cluster.slice(stage.slice).occupant, inst->id());
        }
      }
      sim.Run();  // drain loads so everything is idle
      for (platform::Instance* inst : plat.AllInstances()) {
        if (rng.Chance(0.5)) plat.RetireInstance(inst);
      }
    }
    EXPECT_EQ(recorder.plans_committed() + recorder.plans_aborted(),
              attempts);
    EXPECT_EQ(recorder.plans_committed(), committed_total);
  }
}

}  // namespace
}  // namespace fluidfaas
