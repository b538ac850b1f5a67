#include "gpu/cluster.h"

#include <algorithm>
#include <sstream>

namespace fluidfaas::gpu {

Gpu::Gpu(GpuId id, NodeId node, const MigPartition& partition,
         SliceId first_slice_id)
    : id_(id), node_(node) {
  Repartition(partition, first_slice_id);
}

bool Gpu::AllSlicesFree() const {
  return std::all_of(slices_.begin(), slices_.end(),
                     [](const MigSlice& s) { return s.free(); });
}

void Gpu::Repartition(const MigPartition& partition, SliceId first_slice_id) {
  FFS_CHECK_MSG(AllSlicesFree(), "cannot repartition a GPU with bound slices");
  partition_ = partition;
  slices_.clear();
  std::int64_t next = first_slice_id.value;
  for (const Placement& pl : partition_.placements()) {
    MigSlice s;
    s.id = CheckedId<SliceId>(next++);
    s.node = node_;
    s.gpu = id_;
    s.placement = pl;
    s.occupant = InstanceId();
    slices_.push_back(s);
  }
}

Cluster::Cluster(std::vector<std::vector<MigPartition>> node_partitions) {
  std::int32_t gpu_id = 0;
  std::int32_t slice_id = 0;
  for (std::size_t n = 0; n < node_partitions.size(); ++n) {
    gpus_per_node_.push_back(static_cast<int>(node_partitions[n].size()));
    for (const MigPartition& part : node_partitions[n]) {
      gpus_.emplace_back(GpuId(gpu_id++), NodeId(static_cast<int>(n)), part,
                         SliceId(slice_id));
      slice_id += static_cast<std::int32_t>(part.slice_count());
    }
  }
  RebuildSliceIndex();
}

Cluster Cluster::Uniform(int num_nodes, int gpus_per_node,
                         const MigPartition& partition) {
  FFS_CHECK(num_nodes > 0 && gpus_per_node > 0);
  std::vector<std::vector<MigPartition>> parts(
      static_cast<std::size_t>(num_nodes),
      std::vector<MigPartition>(static_cast<std::size_t>(gpus_per_node),
                                partition));
  return Cluster(std::move(parts));
}

void Cluster::RebuildSliceIndex() {
  slices_.clear();
  free_by_profile_ = {};
  free_on_node_.assign(gpus_per_node_.size(), FreeSets{});
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    for (std::size_t l = 0; l < gpus_[g].slices().size(); ++l) {
      const MigSlice& s = gpus_[g].slices()[l];
      FFS_CHECK_MSG(static_cast<std::size_t>(s.id.value) == slices_.size(),
                    "slice ids must be dense and in order");
      slices_.push_back(SliceRef{static_cast<int>(g), static_cast<int>(l)});
      if (s.allocatable()) AddFree(s);
    }
  }
}

void Cluster::AddFree(const MigSlice& s) {
  const auto p = static_cast<std::size_t>(s.profile());
  free_by_profile_[p].insert(s.id.value);
  free_on_node_[static_cast<std::size_t>(s.node.value)][p].insert(s.id.value);
}

void Cluster::RemoveFree(const MigSlice& s) {
  const auto p = static_cast<std::size_t>(s.profile());
  free_by_profile_[p].erase(s.id.value);
  free_on_node_[static_cast<std::size_t>(s.node.value)][p].erase(s.id.value);
}

const Cluster::FreeSets& Cluster::free_on_node(NodeId node) const {
  FFS_CHECK(node.valid() && node.value < num_nodes());
  return free_on_node_[static_cast<std::size_t>(node.value)];
}

const Gpu& Cluster::gpu(GpuId id) const {
  FFS_CHECK(id.valid() &&
            static_cast<std::size_t>(id.value) < gpus_.size());
  return gpus_[static_cast<std::size_t>(id.value)];
}

const MigSlice& Cluster::slice(SliceId id) const {
  FFS_CHECK(id.valid() &&
            static_cast<std::size_t>(id.value) < slices_.size());
  const SliceRef& r = slices_[static_cast<std::size_t>(id.value)];
  if (r.gpu < 0) {
    RaiseError(ErrorCode::kSliceRetired,
               "slice " + ToString(id) + " was retired by a repartition");
  }
  return gpus_[static_cast<std::size_t>(r.gpu)]
      .slices_[static_cast<std::size_t>(r.local)];
}

MigSlice& Cluster::mutable_slice(SliceId id) {
  return const_cast<MigSlice&>(
      static_cast<const Cluster*>(this)->slice(id));
}

std::vector<SliceId> Cluster::AllSlices() const {
  std::vector<SliceId> out;
  out.reserve(slices_.size());
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    if (slices_[i].gpu < 0) continue;  // retired by a repartition
    out.push_back(SliceId(static_cast<std::int32_t>(i)));
  }
  return out;
}

bool Cluster::IsDead(SliceId id) const {
  FFS_CHECK(id.valid() &&
            static_cast<std::size_t>(id.value) < slices_.size());
  return slices_[static_cast<std::size_t>(id.value)].gpu < 0;
}

std::vector<SliceId> Cluster::RepartitionGpu(GpuId gpu_id,
                                             const MigPartition& partition) {
  FFS_CHECK(gpu_id.valid() &&
            static_cast<std::size_t>(gpu_id.value) < gpus_.size());
  Gpu& g = gpus_[static_cast<std::size_t>(gpu_id.value)];
  FFS_CHECK_MSG(g.AllSlicesFree(),
                "cannot repartition GPU " + ToString(gpu_id) +
                    " while slices are bound");
  // Retire the old ids (failed slices were never in the free indexes;
  // RemoveFree is a harmless no-op for them).
  for (const MigSlice& s : g.slices()) {
    RemoveFree(s);
    slices_[static_cast<std::size_t>(s.id.value)] = SliceRef{-1, -1};
  }
  // Renumber the GPU's slices at the end of the id space.
  const SliceId first = CheckedId<SliceId>(slices_.size());
  g.Repartition(partition, first);
  std::vector<SliceId> fresh;
  for (std::size_t l = 0; l < g.slices().size(); ++l) {
    slices_.push_back(SliceRef{gpu_id.value, static_cast<int>(l)});
    AddFree(g.slices()[l]);
    fresh.push_back(g.slices()[l].id);
  }
  return fresh;
}

void Cluster::Bind(SliceId sid, InstanceId instance) {
  MigSlice& s = mutable_slice(sid);
  if (!s.free()) {
    RaiseError(ErrorCode::kSliceOccupied,
               "strong-isolation violation: slice " + ToString(sid) +
                   " already bound to instance " + ToString(s.occupant));
  }
  if (s.failed) {
    RaiseError(ErrorCode::kSliceFailed,
               "binding failed slice " + ToString(sid) + " before repair");
  }
  FFS_CHECK(instance.valid());
  s.occupant = instance;
  RemoveFree(s);
}

void Cluster::MarkFailed(SliceId sid) {
  MigSlice& s = mutable_slice(sid);
  FFS_CHECK_MSG(s.free(),
                "MarkFailed on slice " + ToString(sid) +
                    " while still bound; crash the occupant first");
  FFS_CHECK_MSG(!s.failed, "slice " + ToString(sid) + " already failed");
  s.failed = true;
  RemoveFree(s);
}

void Cluster::Repair(SliceId sid) {
  FFS_CHECK(sid.valid() &&
            static_cast<std::size_t>(sid.value) < slices_.size());
  if (IsDead(sid)) return;  // a repartition already replaced this slice
  MigSlice& s = mutable_slice(sid);
  FFS_CHECK_MSG(s.failed, "Repair on healthy slice " + ToString(sid));
  s.failed = false;
  if (s.free()) AddFree(s);
}

bool Cluster::IsFailed(SliceId sid) const {
  FFS_CHECK(sid.valid() &&
            static_cast<std::size_t>(sid.value) < slices_.size());
  return !IsDead(sid) && slice(sid).failed;
}

void Cluster::Release(SliceId sid, InstanceId instance) {
  MigSlice& s = mutable_slice(sid);
  if (s.occupant != instance) {
    RaiseError(ErrorCode::kNotOccupant,
               "release by non-occupant " + ToString(instance) +
                   " on slice " + ToString(sid) + " held by " +
                   ToString(s.occupant));
  }
  s.occupant = InstanceId();
  if (!s.failed) AddFree(s);
}

int Cluster::TotalGpcs() const {
  int g = 0;
  for (const Gpu& gpu : gpus_) g += gpu.partition().total_gpcs();
  return g;
}

std::string Cluster::Describe() const {
  std::ostringstream os;
  os << num_nodes() << " node(s), " << num_gpus() << " GPU(s), "
     << num_slices() << " slice(s):\n";
  for (const Gpu& g : gpus_) {
    os << "  node " << g.node().value << " gpu " << g.id().value << ": "
       << g.partition().ToString() << "\n";
  }
  return os.str();
}

}  // namespace fluidfaas::gpu
