#include "gpu/cluster.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "gpu/cluster_view.h"

namespace fluidfaas::gpu {
namespace {

Cluster MakeTestCluster() {
  // 2 nodes x 2 GPUs, default partition (4g+2g+1g) each: 12 slices total.
  return Cluster::Uniform(2, 2, DefaultPartition());
}

TEST(ClusterTest, TopologyCounts) {
  Cluster c = MakeTestCluster();
  EXPECT_EQ(c.num_nodes(), 2);
  EXPECT_EQ(c.num_gpus(), 4);
  EXPECT_EQ(c.num_slices(), 12u);
  EXPECT_EQ(c.TotalGpcs(), 28);
  EXPECT_EQ(ClusterView(c).FreeSlices().size(), c.num_slices());
}

TEST(ClusterTest, SliceIdsAreDenseAndOrdered) {
  Cluster c = MakeTestCluster();
  auto all = c.AllSlices();
  ASSERT_EQ(all.size(), 12u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].value, static_cast<std::int32_t>(i));
    EXPECT_EQ(c.slice(all[i]).id, all[i]);
  }
}

TEST(ClusterTest, SlicesKnowTheirGpuAndNode) {
  Cluster c = MakeTestCluster();
  for (SliceId sid : c.AllSlices()) {
    const MigSlice& s = c.slice(sid);
    const Gpu& g = c.gpu(s.gpu);
    EXPECT_EQ(g.node(), s.node);
    bool found = false;
    for (const MigSlice& gs : g.slices()) {
      if (gs.id == sid) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(ClusterTest, BindReleaseLifecycle) {
  Cluster c = MakeTestCluster();
  const SliceId sid(0);
  const InstanceId inst(7);
  EXPECT_TRUE(c.slice(sid).free());
  c.Bind(sid, inst);
  EXPECT_FALSE(c.slice(sid).free());
  EXPECT_EQ(c.slice(sid).occupant, inst);
  EXPECT_EQ(ClusterView(c).FreeSlices().size(), c.num_slices() - 1);
  c.Release(sid, inst);
  EXPECT_TRUE(c.slice(sid).free());
  EXPECT_EQ(ClusterView(c).FreeSlices().size(), c.num_slices());
}

TEST(ClusterTest, StrongIsolationDoubleBindThrows) {
  Cluster c = MakeTestCluster();
  c.Bind(SliceId(0), InstanceId(1));
  EXPECT_THROW(c.Bind(SliceId(0), InstanceId(2)), FfsError);
  // Same instance re-binding the same slice is also a violation.
  EXPECT_THROW(c.Bind(SliceId(0), InstanceId(1)), FfsError);
}

TEST(ClusterTest, ReleaseByNonOccupantThrows) {
  Cluster c = MakeTestCluster();
  c.Bind(SliceId(0), InstanceId(1));
  EXPECT_THROW(c.Release(SliceId(0), InstanceId(2)), FfsError);
  EXPECT_THROW(c.Release(SliceId(1), InstanceId(1)), FfsError);
}

TEST(ClusterTest, BindInvalidInstanceThrows) {
  Cluster c = MakeTestCluster();
  EXPECT_THROW(c.Bind(SliceId(0), InstanceId()), FfsError);
}

TEST(ClusterTest, FreeSliceQueries) {
  Cluster c = MakeTestCluster();
  const ClusterView v(c);
  EXPECT_EQ(v.FreeSlices().size(), 12u);
  EXPECT_EQ(v.FreeSlices(MigProfile::k4g40gb).size(), 4u);
  EXPECT_EQ(v.FreeSlicesOnNode(NodeId(0)).size(), 6u);

  // Bind one 4g on node 0.
  for (SliceId sid : v.FreeSlices(MigProfile::k4g40gb)) {
    if (c.slice(sid).node == NodeId(0)) {
      c.Bind(sid, InstanceId(1));
      break;
    }
  }
  EXPECT_EQ(v.FreeSlices().size(), 11u);
  EXPECT_EQ(v.FreeSlices(MigProfile::k4g40gb).size(), 3u);
  EXPECT_EQ(v.FreeSlicesOnNode(NodeId(0)).size(), 5u);
  EXPECT_EQ(v.FreeSlicesOnNode(NodeId(1)).size(), 6u);
}

TEST(ClusterTest, SmallestFreeSliceWithMemoryPrefersFewestGpcs) {
  Cluster c = MakeTestCluster();
  const ClusterView v(c);
  // 8 GB fits everywhere; the 1g slice must win.
  auto sid = v.SmallestFreeSliceWithMemory(GiB(8));
  ASSERT_TRUE(sid.has_value());
  EXPECT_EQ(c.slice(*sid).profile(), MigProfile::k1g10gb);
  // 15 GB needs at least 2g.
  sid = v.SmallestFreeSliceWithMemory(GiB(15));
  ASSERT_TRUE(sid.has_value());
  EXPECT_EQ(c.slice(*sid).profile(), MigProfile::k2g20gb);
  // 35 GB needs the 4g.
  sid = v.SmallestFreeSliceWithMemory(GiB(35));
  ASSERT_TRUE(sid.has_value());
  EXPECT_EQ(c.slice(*sid).profile(), MigProfile::k4g40gb);
  // 45 GB fits nowhere on this partition.
  EXPECT_FALSE(v.SmallestFreeSliceWithMemory(GiB(45)).has_value());
}

TEST(ClusterTest, SmallestFreeSliceSkipsBoundSlices) {
  Cluster c = MakeTestCluster();
  const ClusterView v(c);
  for (SliceId sid : v.FreeSlices(MigProfile::k1g10gb)) {
    c.Bind(sid, InstanceId(1));
  }
  auto sid = v.SmallestFreeSliceWithMemory(GiB(8));
  ASSERT_TRUE(sid.has_value());
  EXPECT_EQ(c.slice(*sid).profile(), MigProfile::k2g20gb);
}

TEST(ClusterTest, GpuAllSlicesFree) {
  Cluster c = MakeTestCluster();
  EXPECT_TRUE(c.gpu(GpuId(0)).AllSlicesFree());
  c.Bind(SliceId(0), InstanceId(1));
  const GpuId g = c.slice(SliceId(0)).gpu;
  EXPECT_FALSE(c.gpu(g).AllSlicesFree());
}

TEST(ClusterTest, HeterogeneousPartitionsPerGpu) {
  std::vector<std::vector<MigPartition>> parts = {
      {MigPartition::Parse("7g.80gb"),
       MigPartition::Parse("3g.40gb+3g.40gb")}};
  Cluster c(std::move(parts));
  EXPECT_EQ(c.num_gpus(), 2);
  EXPECT_EQ(c.num_slices(), 3u);
  EXPECT_EQ(c.TotalGpcs(), 13);
}

TEST(ClusterTest, HybridSchemeBuilds) {
  Cluster c(std::vector<std::vector<MigPartition>>{PartitionSchemeHybrid()});
  const ClusterView v(c);
  EXPECT_EQ(c.num_gpus(), 8);
  EXPECT_EQ(v.FreeSlices(MigProfile::k1g10gb).size(), 7u + 2u + 1u);
}

TEST(GpuTest, RepartitionRequiresAllFree) {
  Cluster c = MakeTestCluster();
  c.Bind(SliceId(0), InstanceId(1));
  // Repartition of that GPU must fail while a slice is bound. (Occupancy can
  // only be set through Cluster::Bind — the mutable slice accessors are gone
  // — so the whole-cluster API is the only way to stage this.)
  const GpuId g = c.slice(SliceId(0)).gpu;
  EXPECT_THROW(c.RepartitionGpu(g, MigPartition::Parse("7g.80gb")), FfsError);
}

// --- slice failure & repair -------------------------------------------------

TEST(ClusterFaultTest, FailedSliceLeavesEveryAllocationSurface) {
  Cluster c = MakeTestCluster();
  const ClusterView v(c);
  const SliceId sid = *v.SmallestFreeSliceWithMemory(GiB(1));
  const MigProfile profile = c.slice(sid).profile();
  c.MarkFailed(sid);

  EXPECT_TRUE(c.IsFailed(sid));
  EXPECT_FALSE(c.slice(sid).allocatable());
  for (SliceId s : c.AllSlices()) EXPECT_EQ(c.IsFailed(s), s == sid);
  for (SliceId s : v.FreeSlices(profile)) EXPECT_NE(s, sid);
  for (SliceId s : v.FreeSlicesOnNode(c.slice(sid).node)) EXPECT_NE(s, sid);
  auto pick = v.SmallestFreeSliceWithMemory(GiB(1));
  ASSERT_TRUE(pick.has_value());
  EXPECT_NE(*pick, sid);
}

TEST(ClusterFaultTest, FailureIsContainedToOneSlice) {
  Cluster c = MakeTestCluster();
  const SliceId sid = SliceId(0);
  const GpuId gpu = c.slice(sid).gpu;
  c.MarkFailed(sid);
  // Strong isolation: sibling slices of the same GPU keep serving.
  for (SliceId s : c.AllSlices()) {
    if (s == sid) continue;
    EXPECT_TRUE(c.slice(s).allocatable()) << s.value;
    if (c.slice(s).gpu == gpu) {
      c.Bind(s, InstanceId(1));
      c.Release(s, InstanceId(1));
    }
  }
}

TEST(ClusterFaultTest, RepairRestoresAllocatability) {
  Cluster c = MakeTestCluster();
  const SliceId sid = SliceId(2);
  c.MarkFailed(sid);
  c.Repair(sid);
  EXPECT_FALSE(c.IsFailed(sid));
  EXPECT_TRUE(c.slice(sid).allocatable());
  for (SliceId s : c.AllSlices()) EXPECT_FALSE(c.IsFailed(s));
  c.Bind(sid, InstanceId(7));  // usable again
  EXPECT_EQ(c.slice(sid).occupant, InstanceId(7));
}

TEST(ClusterFaultTest, GuardsRejectInvalidTransitions) {
  Cluster c = MakeTestCluster();
  c.Bind(SliceId(0), InstanceId(1));
  // A bound slice cannot fail directly: the platform crashes and releases
  // the occupant first.
  EXPECT_THROW(c.MarkFailed(SliceId(0)), FfsError);
  c.Release(SliceId(0), InstanceId(1));
  c.MarkFailed(SliceId(0));
  EXPECT_THROW(c.MarkFailed(SliceId(0)), FfsError);  // double failure
  EXPECT_THROW(c.Bind(SliceId(0), InstanceId(2)), FfsError);
  EXPECT_THROW(c.Repair(SliceId(1)), FfsError);  // healthy slice
}

// --- typed error codes ------------------------------------------------------
//
// Callers (PlatformCore::Commit validation, recovery paths, these tests)
// dispatch on FfsError::code() instead of parsing message strings.

TEST(ClusterErrorCodeTest, BindOccupiedRaisesSliceOccupied) {
  Cluster c = MakeTestCluster();
  c.Bind(SliceId(0), InstanceId(1));
  try {
    c.Bind(SliceId(0), InstanceId(2));
    FAIL() << "double bind must throw";
  } catch (const FfsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSliceOccupied);
  }
}

TEST(ClusterErrorCodeTest, BindFailedRaisesSliceFailed) {
  Cluster c = MakeTestCluster();
  c.MarkFailed(SliceId(0));
  try {
    c.Bind(SliceId(0), InstanceId(1));
    FAIL() << "bind on failed slice must throw";
  } catch (const FfsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSliceFailed);
  }
}

TEST(ClusterErrorCodeTest, ReleaseByNonOccupantRaisesNotOccupant) {
  Cluster c = MakeTestCluster();
  c.Bind(SliceId(0), InstanceId(1));
  try {
    c.Release(SliceId(0), InstanceId(2));
    FAIL() << "release by non-occupant must throw";
  } catch (const FfsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotOccupant);
  }
  try {
    c.Release(SliceId(1), InstanceId(1));  // free slice, no occupant at all
    FAIL() << "release of a free slice must throw";
  } catch (const FfsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotOccupant);
  }
}

TEST(ClusterErrorCodeTest, RetiredSliceAccessRaisesSliceRetired) {
  Cluster c = MakeTestCluster();
  const GpuId gpu = c.slice(SliceId(0)).gpu;
  c.RepartitionGpu(gpu, MigPartition::Parse("7g.80gb"));
  ASSERT_TRUE(c.IsDead(SliceId(0)));
  try {
    (void)c.slice(SliceId(0));
    FAIL() << "retired slice access must throw";
  } catch (const FfsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSliceRetired);
  }
}

TEST(ClusterFaultTest, RepairAfterRepartitionIsANoOp) {
  Cluster c = MakeTestCluster();
  const SliceId sid = SliceId(0);
  const GpuId gpu = c.slice(sid).gpu;
  c.MarkFailed(sid);
  // Repartitioning replaces the broken slice with fresh ids; the repair
  // scheduled for the old id must land harmlessly.
  const auto fresh = c.RepartitionGpu(gpu, MigPartition::Parse("7g.80gb"));
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_TRUE(c.IsDead(sid));
  EXPECT_FALSE(c.IsFailed(sid));
  c.Repair(sid);  // no throw
  EXPECT_TRUE(c.slice(fresh[0]).allocatable());
}

TEST(ClusterTest, InvalidIdsThrow) {
  Cluster c = MakeTestCluster();
  EXPECT_THROW(c.slice(SliceId()), FfsError);
  EXPECT_THROW(c.slice(SliceId(999)), FfsError);
  EXPECT_THROW(c.gpu(GpuId(99)), FfsError);
}

TEST(ClusterTest, DescribeMentionsEveryGpu) {
  Cluster c = MakeTestCluster();
  const std::string d = c.Describe();
  EXPECT_NE(d.find("gpu 0"), std::string::npos);
  EXPECT_NE(d.find("gpu 3"), std::string::npos);
  EXPECT_NE(d.find("4g.40gb"), std::string::npos);
}

}  // namespace
}  // namespace fluidfaas::gpu
