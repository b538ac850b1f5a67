// Cluster model: nodes of A100 GPUs, each GPU carved into MIG slices.
//
// This layer owns slice identity and the *strong-isolation invariant*: a MIG
// slice is bound to at most one function instance at any instant (paper §4,
// "only one instance to access a MIG slice at any given time"). Binding and
// release go through Cluster so the invariant is enforced in one place.
//
// Reconfiguring a GPU's partition is modelled with the minutes-scale cost the
// paper cites (§2.2); schedulers treat it as prohibitive, which is precisely
// the rigidity FluidFaaS works around.
#pragma once

#include <array>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "gpu/mig_partition.h"

namespace fluidfaas::gpu {

/// One MIG slice as the platform sees it.
struct MigSlice {
  SliceId id;              // cluster-unique
  NodeId node;
  GpuId gpu;               // cluster-unique GPU index
  Placement placement;     // profile + memory-slot position
  InstanceId occupant;     // invalid() when free
  bool failed = false;     // hardware fault; unallocatable until repaired

  MigProfile profile() const { return placement.profile; }
  int gpcs() const { return Gpcs(placement.profile); }
  Bytes memory() const { return MemBytes(placement.profile); }
  bool free() const { return !occupant.valid(); }
  /// Free AND healthy — the only slices schedulers may bind.
  bool allocatable() const { return free() && !failed; }
};

/// A single GPU: its partition and the slices it exposes.
class Gpu {
 public:
  Gpu(GpuId id, NodeId node, const MigPartition& partition,
      SliceId first_slice_id);

  GpuId id() const { return id_; }
  NodeId node() const { return node_; }
  const MigPartition& partition() const { return partition_; }
  const std::vector<MigSlice>& slices() const { return slices_; }

  bool AllSlicesFree() const;

 private:
  // Occupancy and failure state may only change through Cluster's
  // Bind/Release/MarkFailed/Repair/RepartitionGpu, which keep the
  // strong-isolation invariant and the free-slice indexes coherent.
  friend class Cluster;

  /// Replace the partition (slice ids are renumbered starting at
  /// `first_slice_id`). Requires all slices free. The caller accounts for
  /// the reconfiguration delay.
  void Repartition(const MigPartition& partition, SliceId first_slice_id);

  GpuId id_;
  NodeId node_;
  MigPartition partition_;
  std::vector<MigSlice> slices_;
};

/// Whole-cluster topology and slice registry.
class Cluster {
 public:
  /// `node_partitions[n][g]` is the partition of GPU g on node n.
  explicit Cluster(std::vector<std::vector<MigPartition>> node_partitions);

  /// Convenience: `num_nodes` nodes × `gpus_per_node` GPUs, all with the
  /// same partition (the paper's default setup is 2 nodes × 8 GPUs).
  static Cluster Uniform(int num_nodes, int gpus_per_node,
                         const MigPartition& partition);

  int num_nodes() const { return static_cast<int>(gpus_per_node_.size()); }
  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  std::size_t num_slices() const { return slices_.size(); }

  const Gpu& gpu(GpuId id) const;
  const std::vector<Gpu>& gpus() const { return gpus_; }

  const MigSlice& slice(SliceId id) const;

  /// All slices, cluster-wide, in id order.
  std::vector<SliceId> AllSlices() const;

  // Free-slice queries live on gpu::ClusterView (a bare Cluster converts
  // to one), served from the free-slice indexes below.

  /// Bind / release enforce the strong-isolation invariant. Violations raise
  /// FfsError with a typed code: Bind on an occupied slice ->
  /// ErrorCode::kSliceOccupied, Bind on a faulted slice ->
  /// ErrorCode::kSliceFailed, Release by a non-occupant ->
  /// ErrorCode::kNotOccupant, any access to a repartitioned-away id ->
  /// ErrorCode::kSliceRetired.
  void Bind(SliceId sid, InstanceId instance);
  void Release(SliceId sid, InstanceId instance);

  /// Fault a slice: it must already be free (the platform crashes and
  /// releases the occupant first) and stays unallocatable until Repair().
  /// The paper's isolation claim is exactly that the failure stops here —
  /// sibling slices of the same GPU keep serving.
  void MarkFailed(SliceId sid);

  /// Bring a failed slice back. Ignores slices retired by a repartition in
  /// the meantime (repartitioning replaces broken slices with fresh ids).
  void Repair(SliceId sid);

  bool IsFailed(SliceId sid) const;

  /// Replace a GPU's MIG partition at runtime (all its slices must be
  /// free). The old slice ids die permanently; the new slices get fresh
  /// cluster-unique ids, returned in placement order. The caller accounts
  /// for the minutes-scale delay and must re-sync any per-slice observers
  /// (e.g. metrics::Recorder::SyncSlices).
  std::vector<SliceId> RepartitionGpu(GpuId gpu,
                                      const MigPartition& partition);

  /// True when `sid` refers to a slice retired by a repartition.
  bool IsDead(SliceId sid) const;

  /// GPC accounting (for utilization metrics).
  int TotalGpcs() const;

  std::string Describe() const;

 private:
  // ClusterView reads the free-slice indexes directly for its overlay-aware
  // queries; it never mutates.
  friend class ClusterView;

  // Slice index entries are (gpu index, index into that GPU's slice vector)
  // rather than raw pointers so Cluster stays freely movable/copyable.
  // gpu == -1 marks a slice id retired by RepartitionGpu.
  struct SliceRef {
    int gpu;
    int local;
  };

  // Mutable access is an implementation detail: all occupancy / failure
  // transitions go through the public Bind/Release/MarkFailed/Repair API so
  // the free-slice indexes below cannot drift from the slice state. (Named
  // distinctly from the const accessor so non-const callers still resolve
  // to the public read-only overload.)
  MigSlice& mutable_slice(SliceId id);

  void AddFree(const MigSlice& s);
  void RemoveFree(const MigSlice& s);

  std::vector<Gpu> gpus_;            // indexed by GpuId
  std::vector<SliceRef> slices_;     // indexed by SliceId
  std::vector<int> gpus_per_node_;   // node -> #GPUs

  // Allocatable slice ids, id-ordered, one set per profile: cluster-wide,
  // and again per node, so a node-scoped query reads only that node's
  // slices. Id order matters — planners iterate these and the deterministic
  // tie-breaks (lowest id first) are part of pinned bench output.
  using FreeSets = std::array<std::set<std::int32_t>, kAllProfiles.size()>;
  FreeSets free_by_profile_;
  std::vector<FreeSets> free_on_node_;  // indexed by NodeId

  const FreeSets& free_on_node(NodeId node) const;

  void RebuildSliceIndex();
};

}  // namespace fluidfaas::gpu
