// Deterministic fault injection for simulation runs.
//
// The injector draws fault arrival times from a Poisson process (its own
// Rng, seeded independently of the workload and the platform so the same
// `--fault-seed` replays the same disruption schedule against any
// scheduler) and publishes fault *commands* on the EventBus — instance
// crash, slice failure, cold-start failure, slow-start straggler (see
// sim/events.h). It never touches platform state directly: the platform's
// recovery machinery subscribes to the commands and applies them, so the
// sim layer stays below the platform in the dependency order.
//
// Victim selection is id-based and deterministic. Live instances and their
// ids are tracked through the same bus events every other observer sees
// (SliceBound / InstanceStateChanged); slice faults are drawn uniformly
// from the initial slice-id space given in the plan. A command that names
// an entity that has since died is dropped by the subscriber — the RNG
// consumption is identical either way, so runs stay reproducible.
//
// With rate == 0 the injector schedules nothing and subscribes to nothing:
// attaching it is a strict no-op, which is what lets `--fault-rate 0`
// reproduce fault-free runs bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/event_bus.h"
#include "sim/events.h"
#include "sim/simulator.h"

namespace fluidfaas::sim {

/// The disruption schedule: how often faults arrive, what mix, how long
/// repairs take. All stochastic choices flow through `seed`.
struct FaultPlan {
  /// Mean fault arrivals per simulated second across the whole cluster;
  /// 0 disables injection entirely.
  double rate = 0.0;

  /// RNG seed for the injector's private stream.
  std::uint64_t seed = 20260807;

  /// Mean time to repair a failed slice (exponentially distributed).
  SimDuration mttr = Seconds(30.0);

  /// No faults are injected at or after this simulated time (keep it at the
  /// trace end so the drain phase can actually drain).
  SimTime horizon = 0;

  /// Size of the initial slice-id space slice faults are drawn from
  /// (cluster.num_slices() at construction; slices minted later by runtime
  /// repartitions are not targeted directly).
  int num_slices = 0;
};

class FaultInjector {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Begin injecting (no-op when plan.rate == 0). Call before the run.
  void Start();

  /// Cancel any pending injection and detach every bus subscription; the
  /// injector can be destroyed or left idle afterwards.
  void Stop();

  bool running() const { return running_; }

  /// Commands published so far, by kind (index = FaultKind).
  std::size_t injected() const { return injected_; }
  std::size_t injected(FaultKind k) const {
    return by_kind_[static_cast<std::size_t>(k)];
  }

  /// Live instances currently visible to victim selection (tests).
  std::size_t tracked_instances() const { return live_instances_.size(); }

 private:
  void Arm();
  void Fire();

  Simulator& sim_;
  FaultPlan plan_;
  Rng rng_;
  bool running_ = false;
  EventId pending_ = 0;
  std::size_t injected_ = 0;
  std::array<std::size_t, 4> by_kind_{};

  // Live-instance population, fed purely by bus events. Ordered so that
  // index-based victim picks are deterministic.
  std::set<std::int32_t> live_instances_;
  std::vector<EventBus::Subscription> subs_;
};

}  // namespace fluidfaas::sim
