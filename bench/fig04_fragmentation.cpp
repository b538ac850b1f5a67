// Figure 4: the resource-fragmentation illustration, executed. A function
// that needs a 4g.40gb monolithically cannot be placed on a cluster whose
// large slices are taken — but FluidFaaS's planner deploys it as a 3g+1g or
// 2g+2g pipeline on the fragments.
#include "bench/bench_util.h"
#include "core/partitioner.h"
#include "core/pipeline.h"
#include "model/zoo.h"

using namespace fluidfaas;

int main() {
  bench::Banner("Figure 4 — fragmentation and pipeline-based placement",
                "Fig. 4");
  // GPU 1: 4g+2g+1g with the 4g and the 1g occupied (Fig. 4(a) left).
  // GPU 2: 3g+2g+2g with the 3g occupied.
  std::vector<std::vector<gpu::MigPartition>> parts = {
      {gpu::MigPartition::Parse("4g.40gb+2g.20gb+1g.10gb"),
       gpu::MigPartition::Parse("3g.40gb+2g.20gb+2g.20gb")}};
  gpu::Cluster cluster(std::move(parts));
  for (SliceId sid : cluster.AllSlices()) {
    const auto& s = cluster.slice(sid);
    const bool occupy =
        (s.gpu == GpuId(0) && s.profile() != gpu::MigProfile::k2g20gb) ||
        (s.gpu == GpuId(1) && s.profile() == gpu::MigProfile::k3g40gb);
    if (occupy) cluster.Bind(sid, InstanceId(99));
  }
  const gpu::ClusterView view(cluster);
  std::cout << cluster.Describe() << "free slices: ";
  for (SliceId sid : view.FreeSlices()) {
    std::cout << gpu::Name(cluster.slice(sid).profile()) << " ";
  }
  std::cout << "\n\n";

  // The new instance: app 0, large variant — monolithic minimum 3g.40gb.
  const auto dag = model::BuildApp(0, model::Variant::kLarge);
  std::cout << "arriving instance: " << dag.name() << ", "
            << metrics::Fmt(static_cast<double>(dag.TotalMemory()) / kGiB, 1)
            << " GB total, monolithic minimum "
            << gpu::Name(*core::MinMonolithicProfile(dag)) << "\n";

  auto mono_slice = view.SmallestFreeSliceWithMemory(dag.TotalMemory());
  std::cout << "monolithic placement on free slices: "
            << (mono_slice ? "POSSIBLE (unexpected!)" : "IMPOSSIBLE — the "
               "idle capacity is fragmented across small slices")
            << "\n";

  auto ranked = core::EnumerateRankedPipelines(dag, 4);
  std::cout << "\nCV-ranked pipeline candidates (Eq. 1):\n";
  for (std::size_t i = 0; i < ranked.size() && i < 6; ++i) {
    std::cout << "  " << i << ": " << core::ToString(ranked[i]) << "\n";
  }
  auto plan = core::PlanFirstFeasible(dag, ranked, cluster);
  if (plan) {
    std::cout << "\ndeployed pipeline (Fig. 4(c)/(d) outcome): "
              << plan->ToString() << "\n"
              << "  bottleneck " << metrics::FmtMillis(static_cast<double>(
                     plan->BottleneckTime()))
              << ", end-to-end "
              << metrics::FmtMillis(
                     static_cast<double>(plan->EndToEndLatency()))
              << ", " << plan->TotalGpcs() << " GPCs\n";
  } else {
    std::cout << "no pipeline found (unexpected)\n";
  }
  return 0;
}
