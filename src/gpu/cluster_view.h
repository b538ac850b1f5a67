// ClusterView: a cheap read-only view of slice state with a reservation
// overlay, the planning half of the placement transaction (DESIGN.md §8).
//
// Planners search over a ClusterView instead of the live Cluster: Reserve()
// marks a slice tentatively occupied so a multi-slice pipeline search never
// picks the same slice twice, and MarkPlannedFree() exposes the slices of a
// planned eviction victim as candidates before the victim is actually
// retired. Nothing here mutates the Cluster — the reservations only become
// real when platform::PlatformCore::Commit() validates and applies the
// resulting PlacementPlan.
//
// Queries are served from the Cluster's free-slice index, id-ordered sets
// per profile cluster-wide and per (node, profile), maintained
// incrementally on every Bind/Release/MarkFailed/Repair/RepartitionGpu.
// So a view costs O(overlay) to carry and free-slice lookups cost
// O(answer), not O(cluster): a node-scoped query reads only that node's
// sets.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "gpu/cluster.h"

namespace fluidfaas::gpu {

class ClusterView {
 public:
  // Implicit on purpose: a bare Cluster is a view with an empty overlay, so
  // planner entry points taking `const ClusterView&` accept a Cluster
  // directly and planning-only call sites read naturally.
  ClusterView(const Cluster& cluster) : cluster_(&cluster) {}  // NOLINT

  const Cluster& cluster() const { return *cluster_; }

  int num_nodes() const { return cluster_->num_nodes(); }
  std::size_t num_slices() const { return cluster_->num_slices(); }
  const MigSlice& slice(SliceId id) const { return cluster_->slice(id); }

  /// Tentatively occupy a slice: it disappears from every free-slice query
  /// of this view. The slice must currently be visible as free here.
  void Reserve(SliceId id);

  /// Tentatively free a slice (a planned eviction of its occupant): it
  /// appears in this view's free-slice queries even though the live slice
  /// is still bound.
  void MarkPlannedFree(SliceId id);

  /// Free as seen through the overlay: (live allocatable or planned-free)
  /// and not reserved.
  bool Allocatable(SliceId id) const;

  /// Free-slice queries, mirroring gpu::Cluster's but overlay-aware. All
  /// results are in ascending id order (the determinism contract planners
  /// rely on).
  std::vector<SliceId> FreeSlices() const;
  std::vector<SliceId> FreeSlices(MigProfile profile) const;
  std::vector<SliceId> FreeSlicesOnNode(NodeId node) const;

  /// Smallest allocatable slice (through the overlay) with at least
  /// `min_memory`, on `node` when given; fewest GPCs first, then lowest id.
  std::optional<SliceId> SmallestFreeSliceWithMemory(
      Bytes min_memory, std::optional<NodeId> node = std::nullopt) const;

 private:
  const Cluster* cluster_;
  std::set<std::int32_t> reserved_;      // overlay: tentatively occupied
  std::set<std::int32_t> planned_free_;  // overlay: tentatively released
};

}  // namespace fluidfaas::gpu
