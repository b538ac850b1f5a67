// Property tests pitting library components against brute-force reference
// implementations on randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "core/pipeline.h"
#include "gpu/cluster.h"
#include "gpu/cluster_view.h"
#include "metrics/recorder.h"
#include "model/costs.h"
#include "model/zoo.h"
#include "platform/load_index.h"
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
      for (SliceId s : cluster.AllSlices()) {
        const auto& slice = cluster.slice(s);
        if (reference.count(s.value)) {
          EXPECT_EQ(slice.occupant.value, reference[s.value]);
        } else {
          EXPECT_TRUE(slice.free());
        }
      }
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
  // Live Release, Repair and RepartitionGpu calls interleave with the
  // queries, so the per-node free index is checked against brute force as
  // slices come free, heal, and are renumbered by a repartition.
  Rng rng(409);
  const auto parts = gpu::EnumerateMaximalPartitions();
  for (int trial = 0; trial < 10; ++trial) {
    gpu::Cluster cluster =
        gpu::Cluster::Uniform(3, 2, gpu::DefaultPartition());
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
    auto all = cluster.AllSlices();
    // Live occupancy as the test's own live calls left it: the overlay
    // must never leak into it.
    std::map<std::int32_t, std::int32_t> live;  // slice -> occupant
    for (SliceId s : all) live[s.value] = cluster.slice(s).occupant.value;
    const auto release = [&](SliceId s) {
      cluster.Release(s, cluster.slice(s).occupant);
      live[s.value] = InstanceId().value;
    };
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
      switch (rng.UniformInt(0, 5)) {
        case 0:
          if (!cluster.slice(sid).free()) release(sid);
          break;
        case 1:
          if (cluster.IsFailed(sid)) cluster.Repair(sid);
          break;
        case 2: {
          // Free the GPU and repartition it: its ids die and fresh ones
          // are minted at the end of the id space. A plan never spans a
          // repartition, so the overlay starts afresh.
          const GpuId g = cluster.slice(sid).gpu;
          for (const gpu::MigSlice& s : cluster.gpu(g).slices()) {
            if (!s.free()) release(s.id);
          }
          for (const gpu::MigSlice& s : cluster.gpu(g).slices()) {
            live.erase(s.id.value);
          }
          const auto& target = parts[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(parts.size()) - 1))];
          for (SliceId fresh : cluster.RepartitionGpu(g, target)) {
            live[fresh.value] = InstanceId().value;
          }
          all = cluster.AllSlices();
          view = gpu::ClusterView(cluster);
          reserved.clear();
          planned.clear();
          break;
        }
        default:
          break;
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
    // The overlay never leaked into live state: occupancy is what the live
    // calls left.
    for (SliceId s : all) {
      EXPECT_EQ(cluster.slice(s).occupant.value, live[s.value]);
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

      // Every live instance, in creation order.
      const auto live_instances = [&plat] {
        std::vector<platform::Instance*> live;
        for (std::size_t i = 0; i < plat.InstanceIdBound(); ++i) {
          platform::Instance* inst =
              plat.FindInstance(CheckedId<InstanceId>(i));
          if (inst != nullptr) live.push_back(inst);
        }
        return live;
      };
      const std::size_t before_insts = live_instances().size();
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
      EXPECT_EQ(live_instances().size(), before_insts + committed);
      // Strong isolation: every live instance holds exactly its planned
      // slices.
      for (platform::Instance* inst : live_instances()) {
        for (const auto& stage : inst->plan().stages) {
          EXPECT_EQ(cluster.slice(stage.slice).occupant, inst->id());
        }
      }
      sim.Run();  // drain loads so everything is idle
      for (platform::Instance* inst : live_instances()) {
        if (rng.Chance(0.5)) plat.RetireInstance(inst);
      }
    }
    EXPECT_EQ(recorder.plans_committed() + recorder.plans_aborted(),
              attempts);
    EXPECT_EQ(recorder.plans_committed(), committed_total);
  }
}


// --- LoadIndex vs the scans it replaced --------------------------------------

// The rules of the deleted hand-written scans, over a list in list order.
platform::Instance* ScanLeastLoaded(
    const std::vector<platform::Instance*>& list, SimTime now) {
  platform::Instance* best = nullptr;
  SimTime best_est = kTimeInfinity;
  for (platform::Instance* inst : list) {
    if (!inst->CanAdmit()) continue;
    const SimTime est = inst->EstimateCompletion(now);
    if (est < best_est) {
      best_est = est;
      best = inst;
    }
  }
  return best;
}

platform::Instance* ScanLeastOutstanding(
    const std::vector<platform::Instance*>& list) {
  platform::Instance* best = nullptr;
  for (platform::Instance* inst : list) {
    if (!inst->CanAdmit()) continue;
    if (best == nullptr || inst->outstanding() < best->outstanding()) {
      best = inst;
    }
  }
  return best;
}

platform::Instance* ScanFirstFit(const std::vector<platform::Instance*>& list,
                                 SimTime now, SimTime deadline) {
  platform::Instance* fit = nullptr;
  for (platform::Instance* inst : list) {
    if (!inst->CanAdmit() || inst->EstimateCompletion(now) > deadline) {
      continue;
    }
    if (fit == nullptr || std::pair(inst->ServiceLatency(), inst->id()) <
                              std::pair(fit->ServiceLatency(), fit->id())) {
      fit = inst;
    }
  }
  return fit;
}

// Ties between the trees' picks, on a list long enough to use them: a
// Ready instance with one request queued and a Loading one estimate the
// same, every other entry estimates later and has no request queued.
TEST(LoadIndexProperty, TreeTiesKeepListOrder) {
  using platform::Instance;
  sim::Simulator sim;
  gpu::Cluster cluster = gpu::Cluster::Uniform(8, 2, gpu::DefaultPartition());
  platform::PlatformConfig config;
  config.service_jitter_cv = 0.0;
  platform::PlatformCore plat(sim, cluster, FuzzFunctions(), config,
                              FuzzBundle());
  const FunctionId fn(0);
  const auto free = cluster.AllSlices();
  std::size_t next = 0;
  const auto spawn = [&](SimDuration latency) {
    auto plan = core::MonolithicPlanOnSlice(plat.function(fn).dag, cluster,
                                            free[next++]);
    EXPECT_TRUE(plan.has_value());
    plan->stages.front().exec_time = latency;
    return plat.Commit(platform::SpawnPlan(fn, *plan, false)).spawned.front();
  };
  const SimDuration load = model::ColdLoad(
      core::MonolithicPlanOnSlice(plat.function(fn).dag, cluster, free[0])
          ->stages.front()
          .plan.weights);
  std::vector<Instance*> fillers;
  for (int i = 0; i < 40; ++i) fillers.push_back(spawn(5 * load));
  Instance* ready = spawn(load);
  sim.RunUntil(sim.Now() + Seconds(60));
  Instance* loading = spawn(load);
  const RequestId rid = plat.Submit(fn);
  ready->Enqueue(rid, 1.0, plat.DeadlineOf(rid));
  const SimTime now = sim.Now();
  ASSERT_EQ(ready->EstimateCompletion(now), loading->EstimateCompletion(now));

  platform::LoadIndex list;
  const auto fill = [&](Instance* first, Instance* second) {
    list = {first};
    for (std::size_t i = 0; i < fillers.size(); ++i) {
      list.push_back(fillers[i]);
      if (i == fillers.size() / 2) list.push_back(second);
    }
  };
  fill(loading, ready);
  EXPECT_EQ(list.LeastLoaded(now), loading);
  EXPECT_EQ(list.LeastOutstanding(), loading);
  fill(ready, loading);
  EXPECT_EQ(list.LeastLoaded(now), ready);
  EXPECT_EQ(list.LeastOutstanding(), fillers.front());
  // The tied pair has the least latency; of the two, the least id wins.
  EXPECT_EQ(list.FirstFit(now, now + 6 * load), ready);
  EXPECT_EQ(list.FirstFit(now, now + 2 * load), ready);
  EXPECT_EQ(list.FirstFit(now, now + 2 * load - 1), nullptr);
}

// Random enqueues, completions, aborts, failures, drains, retires,
// launches, promotions (an older instance appended) and prunes, on the
// platform's per-function list and on an exclusive-hot-style list the test
// keeps itself. After every step each query must equal the brute-force
// scan: lists grow past the size where the index switches to its trees
// and shrink below it again, and equal estimates, outstanding counts and
// latencies are common. (A tie between a Loading and a Ready instance is
// rare here; TreeTiesKeepListOrder builds one.)
TEST(LoadIndexProperty, QueriesMatchTheScansTheyReplaced) {
  using platform::Instance;
  Rng rng(411);
  for (int trial = 0; trial < 4; ++trial) {
    sim::Simulator sim;
    gpu::Cluster cluster =
        gpu::Cluster::Uniform(8, 8, gpu::DefaultPartition());
    platform::PlatformConfig config;
    config.service_jitter_cv = 0.0;
    // The test's list outlives the core in odd trials and dies first in
    // even ones: either order must leave no dangling listing.
    std::optional<platform::LoadIndex> outer;
    if (trial % 2 == 1) outer.emplace();
    auto plat = std::make_unique<platform::PlatformCore>(
        sim, cluster, FuzzFunctions(), config, FuzzBundle());
    std::optional<platform::LoadIndex> inner;
    if (trial % 2 == 0) inner.emplace();
    platform::LoadIndex& eh = outer ? *outer : *inner;
    const FunctionId fn(0);
    std::vector<Instance*> eh_ref;    // eh's expected list order
    std::vector<Instance*> live_ref;  // InstancesOf(fn)'s
    std::vector<Instance*> all;       // every instance launched

    const auto pick = [&](const std::vector<Instance*>& v) -> Instance* {
      if (v.empty()) return nullptr;
      return v[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(v.size()) - 1))];
    };
    const auto forget_live = [&](Instance* inst) {
      std::erase(live_ref, inst);
    };
    const auto launch = [&] {
      const auto free = gpu::ClusterView(cluster).FreeSlices();
      if (free.empty()) return;
      const SliceId sid = free[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(free.size()) - 1))];
      auto plan =
          core::MonolithicPlanOnSlice(plat->function(fn).dag, cluster, sid);
      if (!plan) return;
      // Few distinct latencies, so (latency, id) and estimate ties abound.
      plan->stages.front().exec_time = Millis(100) * rng.UniformInt(1, 3);
      const platform::CommitResult r = plat->Commit(
          platform::SpawnPlan(fn, std::move(*plan), rng.Chance(0.5)));
      ASSERT_TRUE(r.ok());
      Instance* inst = r.spawned.front();
      all.push_back(inst);
      live_ref.push_back(inst);
      if (rng.Chance(0.7)) {
        eh.push_back(inst);
        eh_ref.push_back(inst);
      }
    };

    std::size_t treed_checks = 0;
    for (int step = 0; step < 600; ++step) {
      // Grow to past the tree size, then let churn shrink the lists.
      const double grow = step < 300 ? 0.45 : 0.1;
      const std::int64_t op = rng.UniformInt(0, 9);
      if (rng.Chance(grow)) {
        launch();
      } else if (op <= 2) {
        // Enqueue on an admitting instance (a request the router refused).
        Instance* inst = pick(live_ref);
        if (inst != nullptr && inst->CanAdmit()) {
          for (int k = rng.UniformInt(1, 3); k > 0; --k) {
            const RequestId rid = plat->Submit(fn);
            inst->Enqueue(rid, 1.0, plat->DeadlineOf(rid));
          }
        }
      } else if (op == 3) {
        // Completions and Loading -> Ready transitions.
        sim.RunUntil(sim.Now() + Millis(50) * rng.UniformInt(1, 8));
      } else if (op == 4) {
        // Abort a queued request, if the instance has one waiting.
        Instance* inst = pick(live_ref);
        if (inst != nullptr && inst->CanAdmit()) {
          const RequestId rid = plat->Submit(fn);
          inst->Enqueue(rid, 1.0, plat->DeadlineOf(rid));
          inst->Abort(rid);  // fails when the request started at once
        }
      } else if (op == 5) {
        if (Instance* inst = pick(live_ref)) {
          forget_live(inst);
          plat->FailInstance(inst, sim::FaultKind::kInstanceCrash);
        }
      } else if (op == 6) {
        if (Instance* inst = pick(live_ref)) {
          if (plat->DrainOrRetire(inst)) forget_live(inst);
        }
      } else if (op == 7) {
        // Promote: append an instance listed elsewhere, often an older one.
        Instance* inst = pick(live_ref);
        if (inst != nullptr && std::find(eh_ref.begin(), eh_ref.end(),
                                         inst) == eh_ref.end()) {
          eh.push_back(inst);
          eh_ref.push_back(inst);
        }
      } else if (op == 8) {
        eh.EraseNonAdmitting();
        std::erase_if(eh_ref, [](Instance* i) { return !i->CanAdmit(); });
      } else {
        if (Instance* inst = pick(eh_ref)) {
          eh.erase(inst);
          std::erase(eh_ref, inst);
        }
        // Retire an idle draining instance, as the schedulers do.
        for (Instance* inst : std::vector<Instance*>(live_ref)) {
          if (inst->state() == platform::InstanceState::kDraining &&
              inst->Idle()) {
            plat->RetireInstance(inst);
            forget_live(inst);
            break;
          }
        }
      }

      ASSERT_EQ(plat->InstancesOf(fn).items(), live_ref) << "step " << step;
      ASSERT_EQ(eh.items(), eh_ref) << "step " << step;
      const SimTime now = sim.Now();
      const platform::LoadIndex& live = plat->InstancesOf(fn);
      for (const platform::LoadIndex* index : {&live, &std::as_const(eh)}) {
        const std::vector<Instance*>& list = index->items();
        if (list.size() >= 32) ++treed_checks;  // LoadIndex::kTreeFrom
        ASSERT_EQ(index->LeastLoaded(now), ScanLeastLoaded(list, now))
            << "step " << step;
        ASSERT_EQ(index->LeastOutstanding(), ScanLeastOutstanding(list))
            << "step " << step;
        // Deadlines at, just below and just past some instance's estimate,
        // and one at random.
        std::vector<SimTime> deadlines = {now + rng.UniformInt(0, Seconds(3))};
        if (Instance* inst = pick(list)) {
          const SimTime est = inst->EstimateCompletion(now);
          deadlines.insert(deadlines.end(), {est - 1, est, est + 1});
        }
        for (const SimTime deadline : deadlines) {
          ASSERT_EQ(index->FirstFit(now, deadline),
                    ScanFirstFit(list, now, deadline))
              << "step " << step;
        }
      }
    }
    EXPECT_GT(treed_checks, 100u) << "the lists never reached tree size";
  }
}

}  // namespace
}  // namespace fluidfaas
