// LoadIndex: a list of instances in insertion order that answers the
// routers' picks without scanning the list.
//
// Every router picks from one function's instances by a rule that compares
// Instance::EstimateCompletion(now) = max(now, ready_at) + backlog, with
// backlog = outstanding × bottleneck + service_latency. The order of two
// Ready instances (ready_at <= now) is their backlog order, which does not
// move with time; a Loading instance (ready_at > now) estimates the
// time-free ready_at + backlog. Both keys change only on an enqueue, a
// completion, an abort, a failure, a state change or a launch, and on each
// the instance marks its slot in every index that lists it. A query first
// reloads the marked slots' keys and mends a tournament tree per key (the
// Ready backlog, the Loading estimate, the outstanding count), walking up
// from each leaf that moved; then the root answers. So a query costs
// O(log n) per slot that moved since the last one, an enqueue and a
// completion between two queries cancel out, and nothing allocates. Ties
// go to the first entry in list order.
//
// The leaves are sorted by (ServiceLatency, id), so FluidFaaS's step 1 (the
// least such pair among the instances that meet a deadline) is the
// leftmost leaf that meets it: one descent.
//
// A list shorter than kTreeFrom keeps no trees: a query reads its
// instances in one pass, which at that size touches fewer cache lines than
// keeping the trees does. A longer list builds a key's tree on the key's
// first query, so a list no router reads (FluidFaaS's per-function list)
// builds none.
//
// An instance sits in at most two lists (the platform's per-function list
// and one scheduling domain's exclusive-hot list). An append or a removal
// moves the slots after it, and the trees are mended from there on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/types.h"

namespace fluidfaas::platform {

class Instance;

class LoadIndex {
 public:
  LoadIndex() = default;
  ~LoadIndex();
  LoadIndex(const LoadIndex&) = delete;
  LoadIndex& operator=(const LoadIndex&) = delete;
  /// Only an empty index moves: a listed instance points at its index.
  LoadIndex(LoadIndex&& other) noexcept;
  /// Replace the list with `insts`, in that order.
  LoadIndex& operator=(std::initializer_list<Instance*> insts);

  // -- the list, in insertion order ----------------------------------------

  const std::vector<Instance*>& items() const { return items_; }
  std::vector<Instance*>::const_iterator begin() const {
    return items_.begin();
  }
  std::vector<Instance*>::const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  Instance* front() const { return items_.front(); }

  void push_back(Instance* inst);
  /// Remove `inst`, keeping the order of the rest.
  void erase(Instance* inst);
  /// Remove every entry that no longer admits (draining, retired or
  /// failed), keeping the order of the rest. A long list counts them, so
  /// there it costs nothing when there is none.
  void EraseNonAdmitting();

  // -- the picks -------------------------------------------------------------

  /// The admitting instance with the earliest EstimateCompletion(now), the
  /// first in list order on a tie; null when none admits.
  Instance* LeastLoaded(SimTime now) const;

  /// The admitting instance with the fewest outstanding requests, the
  /// first in list order on a tie; null when none admits.
  Instance* LeastOutstanding() const;

  /// The admitting instance with the least (ServiceLatency, id) among those
  /// whose EstimateCompletion(now) is at or below `deadline`; null when
  /// none meets it, which the root answers alone.
  Instance* FirstFit(SimTime now, SimTime deadline) const;

 private:
  friend class Instance;

  // One entry of the list: an instance and its keys, each kTimeInfinity
  // when the instance is not in that key's group.
  struct Slot {
    Instance* inst = nullptr;
    std::uint64_t seq = 0;           // list position (insertion counter)
    SimTime ready = kTimeInfinity;    // Ready: the backlog
    SimTime loading = kTimeInfinity;  // Loading: ready_at + backlog
    SimTime outstanding = kTimeInfinity;  // admitting: outstanding()
    bool marked = false;  // the instance moved since the keys were loaded
  };
  // A tree node: the least (key, seq) of its subtree, and that entry's
  // slot (-1 for none).
  struct Node {
    SimTime key = kTimeInfinity;
    std::uint64_t seq = 0;
    std::int32_t slot = -1;
  };
  // The trees, one per key: a 1-based heap over width_ leaves each.
  enum Group : unsigned { kReady, kLoading, kOutstanding, kGroups };
  static constexpr SimTime Slot::*kKey[kGroups] = {
      &Slot::ready, &Slot::loading, &Slot::outstanding};

  // Lists shorter than this answer a query in one pass over their
  // instances: at that size the pass reads fewer cache lines than keeping
  // the trees up to date on every enqueue and completion does.
  static constexpr std::size_t kTreeFrom = 32;

  /// Called by the instance in `slot` whenever its keys may have moved.
  void Mark(std::uint32_t slot) {
    if (!tracked_) return;
    Slot& s = slots_[slot];
    if (s.marked) return;
    s.marked = true;
    marked_.push_back(slot);
  }
  /// Called by an instance as it is destroyed.
  void Forget(std::uint32_t slot) { RemoveSlot(slot); }

  /// Start tracking the keys (a long list's first query).
  void Track() const;
  /// Reload the marked slots' keys and update the built trees.
  void Sync() const;
  /// Reload `slot`'s keys from its instance; a bit per key that moved.
  static unsigned LoadKeys(Slot& slot);
  /// Tree `g`'s leaf for `slot` (an empty node past the last slot).
  Node LeafOf(Group g, std::size_t slot) const;
  /// Track and Sync, then build the trees of `groups` too, if not yet built.
  void Want(std::initializer_list<Group> groups) const;
  /// Build tree `g` over slots_, or only the leaves [from, to) and their
  /// ancestors.
  void BuildTree(Group g) const;
  void BuildTree(Group g, std::size_t from, std::size_t to) const;
  /// Put `slot`'s key into tree `g` and walk up until nothing moves.
  void Update(Group g, std::uint32_t slot) const;
  /// After the slots from `from` on moved (the list had `old_size`
  /// entries): tell those instances their slot, and mend the trees.
  void Reslot(std::size_t from, std::size_t old_size);
  void RemoveSlot(std::uint32_t slot);
  /// Record `slot` as `inst`'s place in this index.
  void SetListing(Instance* inst, std::uint32_t slot);
  void ClearListing(Instance* inst);

  std::vector<Instance*> items_;  // list order
  std::size_t width_ = 1;         // leaves: a power of two >= slots_.size()
  std::uint64_t next_seq_ = 0;
  // Keys and trees are a cache of the instances' state, kept only while
  // tracked_: from a long list's first query until it is shorter than
  // kTreeFrom again. The queries fill it, so it is mutable.
  mutable bool tracked_ = false;
  mutable std::vector<Slot> slots_;  // leaves, by (ServiceLatency, id)
  mutable std::vector<std::uint32_t> marked_;  // slots with `marked` set
  mutable std::size_t non_admitting_ = 0;  // tracked entries not admitting
  mutable std::vector<Node> trees_[kGroups];  // built on first query
};

}  // namespace fluidfaas::platform
