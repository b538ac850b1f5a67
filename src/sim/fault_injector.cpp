#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sim/events.h"

namespace fluidfaas::sim {
namespace {

// Relative weights of the fault kinds (normalized by their sum).
constexpr double kWeightInstanceCrash = 0.45;
constexpr double kWeightSliceFailure = 0.25;
constexpr double kWeightColdStartFailure = 0.15;
constexpr double kWeightSlowStart = 0.15;
constexpr double kWeightSum = kWeightInstanceCrash + kWeightSliceFailure +
                              kWeightColdStartFailure + kWeightSlowStart;
static_assert(kWeightSum > 0.0, "all fault-kind weights are zero");

// Load-time multiplier for slow-start stragglers.
constexpr double kSlowStartFactor = 4.0;

}  // namespace

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
  sim_.Cancel(pending_);  // refused once the last armed event has fired
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
    return;
  }
  pending_ = sim_.At(when, [this] {
    Fire();
    if (running_) Arm();
  });
}

void FaultInjector::Fire() {
  // Every branch below consumes the same RNG draws whether or not a victim
  // exists, so the disruption schedule is a pure function of the seed.
  const double pick = rng_.NextDouble() * kWeightSum;
  const SimTime now = sim_.Now();
  ++injected_;
  if (pick < kWeightInstanceCrash) {
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
  if (pick < kWeightInstanceCrash + kWeightSliceFailure) {
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
  if (pick <
      kWeightInstanceCrash + kWeightSliceFailure + kWeightColdStartFailure) {
    ++by_kind_[static_cast<std::size_t>(FaultKind::kColdStartFailure)];
    sim_.bus().Publish(ColdStartFailureArmed{now});
    return;
  }
  ++by_kind_[static_cast<std::size_t>(FaultKind::kSlowStart)];
  sim_.bus().Publish(SlowStartArmed{kSlowStartFactor, now});
}

}  // namespace fluidfaas::sim
