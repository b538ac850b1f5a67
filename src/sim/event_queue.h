// Pending-event set for the discrete-event simulator.
//
// Events pop in (time, sequence) order. The sequence number makes ordering
// of simultaneous events FIFO and therefore deterministic across runs and
// platforms — a requirement for reproducible figures.
//
// Two containers hold the events: a binary min-heap and a sorted FIFO tail.
// Schedule appends to the tail when the event is no earlier than the tail's
// last entry, and otherwise pushes it onto the heap; Pop takes whichever
// head comes first. A replayed trace is scheduled in time order before the
// clock starts, so its arrivals all land in the tail and leave it in O(1)
// each, while the few dozen live platform events stay in a small heap.
// Ids are issued by Schedule or Reserve, in call order, and an event keeps
// its (time, id) key in either container, so the pop order is the same
// total order a single heap gives. ScheduleAs keeps a reserved id's place:
// an event scheduled later under an id reserved earlier pops as if it had
// been scheduled at the reservation. PlatformCore's enforcement timers use
// it to schedule only each function's next timer, and never the timers of
// requests that finish first, while every live expiry keeps its place.
//
// Cancel erases the entry, so the containers hold exactly the live events:
// an id that fired or was already cancelled is not found and is refused.
// Cancel is O(n) over both containers; only PeriodicTask::Stop and
// FaultInjector::Stop call it, once per run each.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/types.h"

namespace fluidfaas::sim {

using EventId = std::uint64_t;
using EventFn = std::function<void()>;

class EventQueue {
 public:
  struct Fired {
    SimTime time;
    EventId id;
    EventFn fn;
  };

  /// Schedule `fn` to fire at absolute time `when`. Returns a handle that
  /// can be passed to Cancel(). Same as ScheduleAs(when, Reserve(), fn).
  EventId Schedule(SimTime when, EventFn fn);

  /// Issue the next id without scheduling anything.
  EventId Reserve() { return next_id_++; }

  /// Schedule `fn` at `when` under `id`, which Reserve() issued and no
  /// event holds yet. Throws if `id` was never issued.
  void ScheduleAs(SimTime when, EventId id, EventFn fn);

  /// Remove a queued event. Returns false if the id is not queued: it
  /// already fired, was already cancelled or was never issued. O(n).
  bool Cancel(EventId id);

  bool empty() const { return heap_.empty() && tail_.empty(); }
  std::size_t size() const { return heap_.size() + tail_.size(); }

  /// Time of the next event; kTimeInfinity when empty.
  SimTime PeekTime() const;

  /// Pop and return the next event. Requires !empty().
  Fired Pop();

 private:
  /// True when the next event is the tail's head, not the heap's.
  /// Requires !empty().
  bool TailFirst() const;

  std::vector<Fired> heap_;  // std::push_heap order: earliest (time, id) first
  std::deque<Fired> tail_;   // ascending (time, id)
  EventId next_id_ = 1;
};

}  // namespace fluidfaas::sim
