#include "platform/load_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.h"
#include "platform/instance.h"

namespace fluidfaas::platform {

namespace {

// The node with the lesser (key, seq), the left one on a tie.
template <typename Node>
const Node& Lesser(const Node& a, const Node& b) {
  return std::pair(b.key, b.seq) < std::pair(a.key, a.seq) ? b : a;
}

bool Admits(const Instance* inst) { return inst->CanAdmit(); }

}  // namespace

LoadIndex::~LoadIndex() {
  for (const Slot& s : slots_) ClearListing(s.inst);
}

LoadIndex::LoadIndex(LoadIndex&& other) noexcept {
  FFS_CHECK_MSG(other.items_.empty(), "moving a non-empty load index");
}

LoadIndex& LoadIndex::operator=(std::initializer_list<Instance*> insts) {
  const std::size_t old_size = slots_.size();
  for (const Slot& s : slots_) ClearListing(s.inst);
  items_.clear();
  slots_.clear();
  Reslot(0, old_size);
  for (Instance* inst : insts) push_back(inst);
  return *this;
}

void LoadIndex::push_back(Instance* inst) {
  for (const Instance::Listing& l : inst->listings_) {
    FFS_CHECK_MSG(l.index != this, "instance listed twice in one index");
  }
  Sync();  // marked_ holds positions, which the insert moves
  items_.push_back(inst);
  Slot slot;
  slot.inst = inst;
  slot.seq = next_seq_++;
  if (tracked_) {
    LoadKeys(slot);
    if (slot.outstanding == kTimeInfinity) ++non_admitting_;
  }
  const auto pos = std::upper_bound(
      slots_.begin(), slots_.end(), slot, [](const Slot& a, const Slot& b) {
        return std::pair(a.inst->ServiceLatency(), a.inst->id()) <
               std::pair(b.inst->ServiceLatency(), b.inst->id());
      });
  const auto from = static_cast<std::size_t>(pos - slots_.begin());
  slots_.insert(pos, slot);
  Reslot(from, slots_.size() - 1);
}

void LoadIndex::erase(Instance* inst) {
  for (Instance::Listing& l : inst->listings_) {
    if (l.index != this) continue;
    const std::uint32_t slot = l.slot;
    l = Instance::Listing{};
    RemoveSlot(slot);
    return;
  }
}

void LoadIndex::RemoveSlot(std::uint32_t slot) {
  Sync();
  if (tracked_ && slots_[slot].outstanding == kTimeInfinity) --non_admitting_;
  items_.erase(std::find(items_.begin(), items_.end(), slots_[slot].inst));
  slots_.erase(slots_.begin() + slot);
  Reslot(slot, slots_.size() + 1);
}

void LoadIndex::EraseNonAdmitting() {
  if (tracked_) {
    Sync();
    if (non_admitting_ == 0) return;
  } else if (std::all_of(items_.begin(), items_.end(), Admits)) {
    return;
  }
  const std::size_t old_size = slots_.size();
  std::erase_if(items_, [](const Instance* i) { return !Admits(i); });
  const auto first = std::find_if(
      slots_.begin(), slots_.end(),
      [](const Slot& s) { return !Admits(s.inst); });
  const auto from = static_cast<std::size_t>(first - slots_.begin());
  std::erase_if(slots_, [this](const Slot& s) {
    if (Admits(s.inst)) return false;
    ClearListing(s.inst);
    return true;
  });
  non_admitting_ = 0;
  Reslot(from, old_size);
}

Instance* LoadIndex::LeastLoaded(SimTime now) const {
  if (slots_.size() < kTreeFrom) {
    Instance* least = nullptr;
    SimTime least_est = kTimeInfinity;
    for (Instance* inst : items_) {
      if (!inst->CanAdmit()) continue;
      const SimTime est = inst->EstimateCompletion(now);
      if (est < least_est) {
        least_est = est;
        least = inst;
      }
    }
    return least;
  }
  Want({kReady, kLoading});
  const Node& ready = trees_[kReady][1];
  const Node& loading = trees_[kLoading][1];
  if (loading.slot < 0) {
    return ready.slot < 0 ? nullptr : slots_[ready.slot].inst;
  }
  if (ready.slot < 0) return slots_[loading.slot].inst;
  // A Loading instance's ready_at is never before now (it turns Ready at
  // ready_at), so its estimate is its key.
  return std::pair(now + ready.key, ready.seq) <
                 std::pair(loading.key, loading.seq)
             ? slots_[ready.slot].inst
             : slots_[loading.slot].inst;
}

Instance* LoadIndex::LeastOutstanding() const {
  if (slots_.size() < kTreeFrom) {
    Instance* least = nullptr;
    for (Instance* inst : items_) {
      if (!inst->CanAdmit()) continue;
      if (least == nullptr || inst->outstanding() < least->outstanding()) {
        least = inst;
      }
    }
    return least;
  }
  Want({kOutstanding});
  const std::int32_t least = trees_[kOutstanding][1].slot;
  return least < 0 ? nullptr : slots_[least].inst;
}

Instance* LoadIndex::FirstFit(SimTime now, SimTime deadline) const {
  if (slots_.size() < kTreeFrom) {
    for (const Slot& s : slots_) {
      if (s.inst->CanAdmit() && s.inst->EstimateCompletion(now) <= deadline) {
        return s.inst;
      }
    }
    return nullptr;
  }
  Want({kReady, kLoading});
  const std::vector<Node>& ready = trees_[kReady];
  const std::vector<Node>& loading = trees_[kLoading];
  const SimTime ready_bound = deadline - now;
  const auto fits = [&](std::size_t k) {
    return ready[k].key <= ready_bound || loading[k].key <= deadline;
  };
  if (!fits(1)) return nullptr;
  std::size_t k = 1;
  while (k < width_) k = fits(2 * k) ? 2 * k : 2 * k + 1;
  return slots_[k - width_].inst;
}

void LoadIndex::Track() const {
  if (tracked_) return;
  tracked_ = true;
  non_admitting_ = 0;
  for (Slot& s : slots_) {
    s.marked = false;
    LoadKeys(s);
    if (s.outstanding == kTimeInfinity) ++non_admitting_;
  }
  marked_.clear();
  marked_.reserve(slots_.size());  // so Mark never allocates
}

void LoadIndex::Sync() const {
  for (const std::uint32_t slot : marked_) {
    Slot& s = slots_[slot];
    s.marked = false;
    const bool admitted = s.outstanding != kTimeInfinity;
    const unsigned moved = LoadKeys(s);
    if (moved == 0) continue;
    const bool admits = s.outstanding != kTimeInfinity;
    if (admitted && !admits) ++non_admitting_;
    if (!admitted && admits) --non_admitting_;
    for (unsigned g = 0; g < kGroups; ++g) {
      if ((moved & (1u << g)) != 0 && !trees_[g].empty()) {
        Update(static_cast<Group>(g), slot);
      }
    }
  }
  marked_.clear();
}

unsigned LoadIndex::LoadKeys(Slot& slot) {
  const Instance& inst = *slot.inst;
  SimTime keys[kGroups] = {kTimeInfinity, kTimeInfinity, kTimeInfinity};
  if (inst.CanAdmit()) {
    keys[kOutstanding] = inst.outstanding();
    if (inst.state() == InstanceState::kReady) {
      keys[kReady] = inst.Backlog();
    } else {
      keys[kLoading] = inst.ready_at() + inst.Backlog();
    }
  }
  unsigned moved = 0;
  for (unsigned g = 0; g < kGroups; ++g) {
    SimTime& key = slot.*kKey[g];
    if (key == keys[g]) continue;
    key = keys[g];
    moved |= 1u << g;
  }
  return moved;
}

LoadIndex::Node LoadIndex::LeafOf(Group g, std::size_t slot) const {
  if (slot >= slots_.size()) return Node{};
  const Slot& s = slots_[slot];
  const SimTime key = s.*kKey[g];
  if (key == kTimeInfinity) return Node{};
  return Node{key, s.seq, static_cast<std::int32_t>(slot)};
}

void LoadIndex::Want(std::initializer_list<Group> groups) const {
  Track();
  Sync();
  for (const Group g : groups) {
    if (trees_[g].empty()) BuildTree(g);
  }
}

void LoadIndex::BuildTree(Group g) const {
  trees_[g].assign(2 * width_, Node{});
  BuildTree(g, 0, width_);
}

void LoadIndex::BuildTree(Group g, std::size_t from, std::size_t to) const {
  std::vector<Node>& t = trees_[g];
  std::size_t lo = width_ + from;
  std::size_t hi = width_ + to;
  for (std::size_t k = lo; k < hi; ++k) t[k] = LeafOf(g, k - width_);
  while (lo > 1) {
    lo /= 2;
    hi = (hi + 1) / 2;
    for (std::size_t k = lo; k < hi; ++k) {
      t[k] = Lesser(t[2 * k], t[2 * k + 1]);
    }
  }
}

void LoadIndex::Update(Group g, std::uint32_t slot) const {
  std::vector<Node>& t = trees_[g];
  const auto moved = static_cast<std::int32_t>(slot);
  std::size_t k = width_ + slot;
  t[k] = LeafOf(g, slot);
  // Walk up until a subtree keeps its least entry and that entry is not
  // the one that moved: then no ancestor's inputs moved.
  for (k /= 2; k >= 1; k /= 2) {
    const Node& least = Lesser(t[2 * k], t[2 * k + 1]);
    if (t[k].slot == least.slot && least.slot != moved) return;
    t[k] = least;
  }
}

void LoadIndex::Reslot(std::size_t from, std::size_t old_size) {
  const std::size_t size = slots_.size();
  for (std::size_t i = from; i < size; ++i) {
    SetListing(slots_[i].inst, static_cast<std::uint32_t>(i));
  }
  const std::size_t old_width = width_;
  width_ = std::bit_ceil(std::max<std::size_t>(size, 1));
  if (size < kTreeFrom) {
    // Short again: the queries read the instances, so drop the cache.
    tracked_ = false;
    marked_.clear();
    for (std::vector<Node>& t : trees_) t.clear();
    return;
  }
  if (!tracked_) return;
  marked_.reserve(size);  // so Mark never allocates
  for (unsigned g = 0; g < kGroups; ++g) {
    if (trees_[g].empty()) continue;
    if (width_ != old_width) {
      BuildTree(static_cast<Group>(g));
    } else {
      BuildTree(static_cast<Group>(g), from, std::max(size, old_size));
    }
  }
}

void LoadIndex::SetListing(Instance* inst, std::uint32_t slot) {
  Instance::Listing* free = nullptr;
  for (Instance::Listing& l : inst->listings_) {
    if (l.index == this) {
      l.slot = slot;
      return;
    }
    if (l.index == nullptr && free == nullptr) free = &l;
  }
  FFS_CHECK_MSG(free != nullptr, "an instance is in at most two load indexes");
  *free = Instance::Listing{this, slot};
}

void LoadIndex::ClearListing(Instance* inst) {
  for (Instance::Listing& l : inst->listings_) {
    if (l.index == this) l = Instance::Listing{};
  }
}

}  // namespace fluidfaas::platform
