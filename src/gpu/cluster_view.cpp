#include "gpu/cluster_view.h"

#include <algorithm>
#include <array>
#include <span>

namespace fluidfaas::gpu {

void ClusterView::Reserve(SliceId id) {
  FFS_CHECK_MSG(Allocatable(id),
                "Reserve on slice " + ToString(id) +
                    " that is not free in this view");
  reserved_.insert(id.value);
}

void ClusterView::MarkPlannedFree(SliceId id) {
  (void)cluster_->slice(id);  // must refer to a live (non-retired) slice
  planned_free_.insert(id.value);
}

bool ClusterView::Allocatable(SliceId id) const {
  if (reserved_.count(id.value) != 0) return false;
  const MigSlice& s = cluster_->slice(id);
  if (planned_free_.count(id.value) != 0) return !s.failed;
  return s.allocatable();
}

namespace {

// Union of live free sets (each id-ordered) and the planned-free overlay,
// in ascending id order. One live set and an empty overlay, the common
// case, is a plain copy.
std::vector<std::int32_t> MergeIds(
    std::span<const std::set<std::int32_t>> live,
    const std::set<std::int32_t>& planned) {
  std::vector<std::int32_t> ids(planned.begin(), planned.end());
  for (const std::set<std::int32_t>& set : live) {
    ids.insert(ids.end(), set.begin(), set.end());
  }
  if (live.size() > 1 || !planned.empty()) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return ids;
}

}  // namespace

std::vector<SliceId> ClusterView::FreeSlices() const {
  std::vector<SliceId> out;
  for (std::int32_t id : MergeIds(cluster_->free_by_profile_, planned_free_)) {
    const SliceId sid(id);
    if (Allocatable(sid)) out.push_back(sid);
  }
  return out;
}

std::vector<SliceId> ClusterView::FreeSlices(MigProfile profile) const {
  const auto& live = cluster_->free_by_profile_[static_cast<std::size_t>(
      profile)];
  std::vector<SliceId> out;
  for (std::int32_t id : MergeIds({&live, 1}, planned_free_)) {
    const SliceId sid(id);
    if (Allocatable(sid) && cluster_->slice(sid).profile() == profile) {
      out.push_back(sid);
    }
  }
  return out;
}

std::vector<SliceId> ClusterView::FreeSlicesOnNode(NodeId node) const {
  std::vector<SliceId> out;
  for (std::int32_t id :
       MergeIds(cluster_->free_on_node(node), planned_free_)) {
    const SliceId sid(id);
    if (Allocatable(sid) && cluster_->slice(sid).node == node) {
      out.push_back(sid);
    }
  }
  return out;
}

std::optional<SliceId> ClusterView::SmallestFreeSliceWithMemory(
    Bytes min_memory, std::optional<NodeId> node) const {
  // Lowest allocatable planned-free id per profile (the overlay is tiny).
  std::array<std::optional<SliceId>, kAllProfiles.size()> planned_min;
  for (std::int32_t id : planned_free_) {
    const SliceId sid(id);
    if (!Allocatable(sid)) continue;
    const MigSlice& s = cluster_->slice(sid);
    if (node && s.node != *node) continue;
    auto& slot = planned_min[static_cast<std::size_t>(s.profile())];
    if (!slot) slot = sid;  // id-ordered set: first hit is the minimum
  }
  // The live sets hold only the scope's slices: the cluster's, or the
  // node's own.
  const Cluster::FreeSets& live =
      node ? cluster_->free_on_node(*node) : cluster_->free_by_profile_;
  std::optional<SliceId> best;
  int best_gpcs = 0;
  for (MigProfile p : kAllProfiles) {
    if (MemBytes(p) < min_memory) continue;
    const std::size_t idx = static_cast<std::size_t>(p);
    std::optional<SliceId> cand = planned_min[idx];
    for (std::int32_t id : live[idx]) {
      if (reserved_.count(id) != 0) continue;
      if (!cand || id < cand->value) cand = SliceId(id);
      break;  // first eligible live id is the live minimum
    }
    if (!cand) continue;
    const int gpcs = Gpcs(p);
    if (!best || gpcs < best_gpcs ||
        (gpcs == best_gpcs && cand->value < best->value)) {
      best = cand;
      best_gpcs = gpcs;
    }
  }
  return best;
}

}  // namespace fluidfaas::gpu
