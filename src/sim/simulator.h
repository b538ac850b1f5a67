// The simulation executive: owns the clock and the event queue, and runs
// events in nondecreasing time order until a horizon or quiescence.
//
// All platform components (controllers, invokers, instances) hold a
// Simulator& and express behaviour as scheduled callbacks; no component ever
// advances time itself.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "sim/event_bus.h"
#include "sim/event_queue.h"

namespace fluidfaas::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  /// The run's typed publish/subscribe bus (see sim/events.h). Components
  /// publish structured state changes here; observers (metrics, tracing)
  /// subscribe instead of being threaded by reference through every layer.
  EventBus& bus() { return bus_; }
  const EventBus& bus() const { return bus_; }

  /// Schedule at an absolute time (must be >= Now()).
  EventId At(SimTime when, EventFn fn);

  /// Schedule after a relative delay (>= 0).
  EventId After(SimDuration delay, EventFn fn);

  /// Issue the next event id without scheduling anything; AtReserved
  /// schedules under it later, in the (time, id) place it had when issued.
  EventId Reserve() { return queue_.Reserve(); }

  /// Schedule at an absolute time (>= Now()) under a reserved id.
  void AtReserved(SimTime when, EventId id, EventFn fn);

  /// Cancel a queued event; false if it already fired (the event now
  /// running included) or was cancelled. O(pending()).
  bool Cancel(EventId id);

  /// Run until the queue drains or the clock would pass `horizon`
  /// (events at exactly `horizon` still fire). Returns the number of
  /// events executed.
  std::uint64_t RunUntil(SimTime horizon);

  /// Run until quiescence (empty queue).
  std::uint64_t Run() { return RunUntil(kTimeInfinity); }

  /// Execute at most one pending event; returns false if none remained or
  /// the next event lies beyond `horizon`.
  bool Step(SimTime horizon = kTimeInfinity);

  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending() const { return queue_.size(); }

 private:
  SimTime now_ = 0;
  EventQueue queue_;
  EventBus bus_;
  std::uint64_t executed_ = 0;
};

/// Helper that re-arms itself every `period` until Stop(); used for
/// utilization sampling and controller scan loops.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, SimDuration period, EventFn fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Start(SimTime first_fire);
  void Stop();
  bool running() const { return running_; }

 private:
  void Arm(SimTime when);

  Simulator& sim_;
  SimDuration period_;
  EventFn fn_;
  EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace fluidfaas::sim
