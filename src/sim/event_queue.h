// Pending-event set for the discrete-event simulator.
//
// A binary min-heap keyed on (time, sequence). The sequence number makes
// ordering of simultaneous events FIFO and therefore deterministic across
// runs and platforms — a requirement for reproducible figures.
// Cancel erases the entry, so the heap holds exactly the live events: an id
// that fired or was already cancelled is not found and is refused. Cancel
// is O(n); only PeriodicTask::Stop and FaultInjector::Stop call it, once
// per run each.
#pragma once

#include <cstdint>
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
  /// can be passed to Cancel().
  EventId Schedule(SimTime when, EventFn fn);

  /// Remove a queued event. Returns false if the id is not queued: it
  /// already fired, was already cancelled or was never issued. O(n).
  bool Cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the next event; kTimeInfinity when empty.
  SimTime PeekTime() const;

  /// Pop and return the next event. Requires !empty().
  Fired Pop();

 private:
  std::vector<Fired> heap_;  // std::push_heap order: earliest (time, id) first
  EventId next_id_ = 1;
};

}  // namespace fluidfaas::sim
