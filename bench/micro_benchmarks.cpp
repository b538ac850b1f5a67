// google-benchmark microbenches for the hot algorithmic paths: the DES
// event queue, the CV partition enumerator, pipeline planning against a
// cluster, the ESG A* search, and the SPSC runtime channel.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>

#include "baselines/esg_search.h"
#include "common/rng.h"
#include "core/partitioner.h"
#include "core/pipeline.h"
#include "gpu/cluster_view.h"
#include "model/synthetic.h"
#include "model/zoo.h"
#include "platform/placement.h"
#include "platform/platform.h"
#include "platform/policy.h"
#include "qos/queue_discipline.h"
#include "runtime/spsc_ring.h"
#include "sim/simulator.h"

namespace fluidfaas {
namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.Schedule(rng.UniformInt(0, 1'000'000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop().time);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_SimulatorEventCascade(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = n;
    std::function<void()> next = [&] {
      if (--remaining > 0) sim.After(1, next);
    };
    sim.After(0, next);
    sim.Run();
    benchmark::DoNotOptimize(sim.Now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorEventCascade)->Arg(10000);

void BM_PartitionEnumeration(benchmark::State& state) {
  const auto dag = model::BuildApp(3, model::Variant::kMedium);  // 5 nodes
  for (auto _ : state) {
    auto cands = core::EnumerateRankedPipelines(dag, 4);
    benchmark::DoNotOptimize(cands.size());
  }
}
BENCHMARK(BM_PartitionEnumeration);

void BM_PipelinePlanOnFragmentedCluster(benchmark::State& state) {
  auto cluster = gpu::Cluster::Uniform(2, 8, gpu::DefaultPartition());
  // Fragment: occupy all 4g slices.
  for (SliceId sid : cluster.AllSlices()) {
    if (cluster.slice(sid).profile() == gpu::MigProfile::k4g40gb) {
      cluster.Bind(sid, InstanceId(1));
    }
  }
  const auto dag = model::BuildApp(0, model::Variant::kMedium);
  const auto ranked = core::EnumerateRankedPipelines(dag, 4);
  model::TransferCostModel transfer;
  for (auto _ : state) {
    auto plan = core::PlanFirstFeasible(dag, ranked, cluster, transfer);
    benchmark::DoNotOptimize(plan.has_value());
  }
}
BENCHMARK(BM_PipelinePlanOnFragmentedCluster);

void BM_PartitionEnumerationScalability(benchmark::State& state) {
  // Beyond the paper's k <= 5: synthetic chains stress the exhaustive
  // 2^(k-1) enumeration + CV ranking.
  const int k = static_cast<int>(state.range(0));
  model::SyntheticAppParams p;
  p.components = k;
  p.min_memory = GiB(1);
  p.max_memory = GiB(4);
  Rng rng(7);
  const auto dag = model::SyntheticApp(p, rng);
  for (auto _ : state) {
    auto cands = core::EnumerateRankedPipelines(dag, k);
    benchmark::DoNotOptimize(cands.size());
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_PartitionEnumerationScalability)->Arg(6)->Arg(10)->Arg(14);

void BM_EsgAStarSearch(benchmark::State& state) {
  const auto dag = model::BuildApp(1, model::Variant::kMedium);
  const std::vector<int> free = {14, 6, 0, 2, 0};
  const SimDuration slo = 2 * dag.TotalLatencyOnGpcs(1);
  const double demand = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto res = baselines::EsgSearch(dag, free, slo, demand);
    benchmark::DoNotOptimize(res.has_value());
  }
}
BENCHMARK(BM_EsgAStarSearch)->Arg(5)->Arg(20)->Arg(60);

void BM_SpscRingThroughput(benchmark::State& state) {
  const std::size_t frame = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> payload(frame);
  for (auto _ : state) {
    state.PauseTiming();
    runtime::SpscByteRing ring(1 << 22);
    constexpr int kFrames = 4096;
    state.ResumeTiming();
    std::thread consumer([&] {
      int n = 0;
      while (n < kFrames) {
        if (ring.Pop()) ++n;
      }
    });
    for (int i = 0; i < kFrames; ++i) {
      ring.Push(payload.data(), static_cast<std::uint32_t>(payload.size()));
    }
    consumer.join();
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<std::int64_t>(kFrames) *
                                static_cast<std::int64_t>(frame));
  }
}
BENCHMARK(BM_SpscRingThroughput)->Arg(256)->Arg(4096)->Arg(65536);

// --- Placement transactions (DESIGN.md §8) ----------------------------------

platform::PolicyBundle InertBundle() {
  struct Reject final : platform::RoutingPolicy {
    bool Route(platform::PlatformCore&, RequestId, FunctionId) override {
      return false;
    }
  };
  struct Noop final : platform::ScalingPolicy {
    void Tick(platform::PlatformCore&) override {}
  };
  platform::PolicyBundle b;
  b.routing = std::make_unique<Reject>();
  b.scaling = std::make_unique<Noop>();
  return b;
}

std::vector<platform::FunctionSpec> BenchFunctions() {
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

// Planner throughput: view snapshot -> plan -> Commit -> retire, the full
// placement-transaction round trip a scheduler performs per decision.
void BM_PlacementPlanCommit(benchmark::State& state) {
  sim::Simulator sim;
  auto cluster = gpu::Cluster::Uniform(2, 8, gpu::DefaultPartition());
  platform::PlatformCore plat(sim, cluster, BenchFunctions(),
                              platform::PlatformConfig{}, InertBundle());
  const auto& dag = plat.function(FunctionId(0)).dag;
  for (auto _ : state) {
    gpu::ClusterView view(cluster);
    auto plan = core::MonolithicPlanOnSmallestSlice(dag, view);
    auto result = plat.Commit(
        platform::SpawnPlan(FunctionId(0), std::move(*plan), true));
    benchmark::DoNotOptimize(result.spawned.front());
    sim.Run();  // drain the load so the instance is retirable
    plat.RetireInstance(result.spawned.front());
  }
  state.SetItemsProcessed(state.iterations());  // plans/sec
}
BENCHMARK(BM_PlacementPlanCommit);

// Commit throughput with live-state drift between plan and commit: the
// planned slice fails with probability range(0)% so a matching fraction of
// commits must detect the conflict and abort cleanly. conflict_rate reports
// the observed abort fraction.
void BM_PlacementCommitUnderFaults(benchmark::State& state) {
  const double fault_rate = static_cast<double>(state.range(0)) / 100.0;
  sim::Simulator sim;
  auto cluster = gpu::Cluster::Uniform(1, 4, gpu::DefaultPartition());
  platform::PlatformCore plat(sim, cluster, BenchFunctions(),
                              platform::PlatformConfig{}, InertBundle());
  const auto& dag = plat.function(FunctionId(0)).dag;
  Rng rng(42);
  std::int64_t attempts = 0;
  std::int64_t aborted = 0;
  for (auto _ : state) {
    gpu::ClusterView view(cluster);
    auto plan = core::MonolithicPlanOnSmallestSlice(dag, view);
    const SliceId target = plan->stages.front().slice;
    const bool faulted = rng.Chance(fault_rate);
    if (faulted) cluster.MarkFailed(target);
    ++attempts;
    auto result = plat.Commit(
        platform::SpawnPlan(FunctionId(0), std::move(*plan), true));
    if (result.ok()) {
      sim.Run();
      plat.RetireInstance(result.spawned.front());
    } else {
      ++aborted;
    }
    if (faulted) cluster.Repair(target);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["conflict_rate"] =
      attempts == 0 ? 0.0
                    : static_cast<double>(aborted) /
                          static_cast<double>(attempts);
}
BENCHMARK(BM_PlacementCommitUnderFaults)->Arg(0)->Arg(10)->Arg(30);

// QoS queue disciplines (DESIGN.md §9): enqueue n requests across 16
// functions with varied deadlines/estimates, then drain everything. Items
// processed counts one enqueue+dequeue pair per request, so ops/s compares
// the per-request bookkeeping cost of fifo vs fair vs edf directly.
void QueueDisciplineRound(qos::QueueDiscipline& q, int n,
                          benchmark::State& state) {
  Rng rng(7);
  for (int i = 0; i < n; ++i) {
    qos::QueueItem item;
    item.rid = RequestId(i);
    item.fn = FunctionId(static_cast<std::int32_t>(rng.UniformInt(0, 15)));
    item.deadline = rng.UniformInt(1, 1'000'000);
    item.priority = item.deadline;
    item.service_estimate = rng.UniformInt(1, 10'000);
    q.Enqueue(item);
  }
  std::int64_t dispatched = 0;
  q.Drain([&dispatched](const qos::QueueItem&) {
    ++dispatched;
    return qos::DrainVerdict::kDispatch;
  });
  benchmark::DoNotOptimize(dispatched);
  if (dispatched != n) state.SkipWithError("drain lost items");
}

template <typename MakeQueue>
void QueueDisciplineBench(benchmark::State& state, MakeQueue make) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto q = make();
    QueueDisciplineRound(*q, n, state);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_QueueDiscipline_Fifo(benchmark::State& state) {
  QueueDisciplineBench(state, [] {
    return std::make_unique<qos::KeyedQueue>(qos::KeyedQueue::Fifo());
  });
}
BENCHMARK(BM_QueueDiscipline_Fifo)->Arg(1024);

void BM_QueueDiscipline_Fair(benchmark::State& state) {
  QueueDisciplineBench(
      state, [] { return std::make_unique<qos::FairQueue>(); });
}
BENCHMARK(BM_QueueDiscipline_Fair)->Arg(1024);

void BM_QueueDiscipline_Edf(benchmark::State& state) {
  QueueDisciplineBench(state, [] {
    return std::make_unique<qos::KeyedQueue>(qos::KeyedQueue::Edf());
  });
}
BENCHMARK(BM_QueueDiscipline_Edf)->Arg(1024);

}  // namespace
}  // namespace fluidfaas

BENCHMARK_MAIN();
