#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sim/events.h"

namespace fluidfaas::sim {

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(sim), plan_(plan), rng_(plan.seed) {
  FFS_CHECK_MSG(plan_.rate >= 0.0, "fault rate must be non-negative");
  FFS_CHECK_MSG(plan_.mttr > 0, "mttr must be positive");
}

FaultInjector::~FaultInjector() { Stop(); }

void FaultInjector::Start() {
  FFS_CHECK_MSG(!running_, "FaultInjector started twice");
  if (plan_.rate <= 0.0) return;  // strict no-op: no events, no subscriptions
  running_ = true;

  // Track the live-instance population through the same events every other
  // observer sees. SliceBound is the creation signal (every instance binds
  // at least one slice before serving); retirement/failure removes it.
  subs_.push_back(sim_.bus().SubscribeScoped<SliceBound>(
      [this](const SliceBound& e) { live_instances_.insert(e.iid.value); }));
  subs_.push_back(sim_.bus().SubscribeScoped<InstanceStateChanged>(
      [this](const InstanceStateChanged& e) {
        if (Terminal(e.to)) live_instances_.erase(e.iid.value);
      }));
  Arm();
}

void FaultInjector::Stop() {
  if (pending_ != 0) {
    sim_.Cancel(pending_);
    pending_ = 0;
  }
  subs_.clear();  // scoped handles unsubscribe on destruction
  live_instances_.clear();
  running_ = false;
}

void FaultInjector::Arm() {
  const double gap_s = rng_.Exponential(plan_.rate);
  const SimTime when =
      sim_.Now() + std::max<SimDuration>(1, Seconds(gap_s));
  if (plan_.horizon > 0 && when >= plan_.horizon) {
    running_ = false;
    pending_ = 0;
    return;
  }
  pending_ = sim_.At(when, [this] {
    pending_ = 0;
    Fire();
    if (running_) Arm();
  });
}

void FaultInjector::Fire() {
  const double wsum = plan_.weight_instance_crash + plan_.weight_slice_failure +
                      plan_.weight_cold_start_failure + plan_.weight_slow_start;
  FFS_CHECK_MSG(wsum > 0.0, "all fault-kind weights are zero");
  // Every branch below consumes the same RNG draws whether or not a victim
  // exists, so the disruption schedule is a pure function of the seed.
  const double pick = rng_.NextDouble() * wsum;
  const SimTime now = sim_.Now();
  ++injected_;
  if (pick < plan_.weight_instance_crash) {
    ++by_kind_[static_cast<std::size_t>(FaultKind::kInstanceCrash)];
    const std::uint64_t draw = rng_.Next();
    if (!live_instances_.empty()) {
      auto it = live_instances_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           draw % live_instances_.size()));
      sim_.bus().Publish(InstanceCrashRequested{InstanceId(*it), now});
    }
    return;
  }
  if (pick < plan_.weight_instance_crash + plan_.weight_slice_failure) {
    ++by_kind_[static_cast<std::size_t>(FaultKind::kSliceFailure)];
    const std::uint64_t draw = rng_.Next();
    const double repair_s = rng_.Exponential(1.0 / ToSeconds(plan_.mttr));
    if (plan_.num_slices > 0) {
      const auto sid = static_cast<std::int32_t>(
          draw % static_cast<std::uint64_t>(plan_.num_slices));
      const SimDuration repair =
          std::max<SimDuration>(Millis(1), Seconds(repair_s));
      sim_.bus().Publish(SliceFailureRequested{SliceId(sid), now, repair});
    }
    return;
  }
  if (pick < plan_.weight_instance_crash + plan_.weight_slice_failure +
                 plan_.weight_cold_start_failure) {
    ++by_kind_[static_cast<std::size_t>(FaultKind::kColdStartFailure)];
    sim_.bus().Publish(ColdStartFailureArmed{now});
    return;
  }
  ++by_kind_[static_cast<std::size_t>(FaultKind::kSlowStart)];
  sim_.bus().Publish(SlowStartArmed{plan_.slow_start_factor, now});
}

}  // namespace fluidfaas::sim
