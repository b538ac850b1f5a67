#include "sim/simulator.h"

#include <utility>

#include "common/error.h"

namespace fluidfaas::sim {

EventId Simulator::At(SimTime when, EventFn fn) {
  FFS_CHECK_MSG(when >= now_, "cannot schedule into the past");
  return queue_.Schedule(when, std::move(fn));
}

EventId Simulator::After(SimDuration delay, EventFn fn) {
  FFS_CHECK_MSG(delay >= 0, "negative delay");
  return queue_.Schedule(now_ + delay, std::move(fn));
}

void Simulator::AtReserved(SimTime when, EventId id, EventFn fn) {
  FFS_CHECK_MSG(when >= now_, "cannot schedule into the past");
  queue_.ScheduleAs(when, id, std::move(fn));
}

bool Simulator::Cancel(EventId id) { return queue_.Cancel(id); }

bool Simulator::Step(SimTime horizon) {
  if (queue_.empty()) return false;
  if (queue_.PeekTime() > horizon) return false;
  auto fired = queue_.Pop();
  FFS_CHECK(fired.time >= now_);
  now_ = fired.time;
  ++executed_;
  fired.fn();
  return true;
}

std::uint64_t Simulator::RunUntil(SimTime horizon) {
  std::uint64_t n = 0;
  while (Step(horizon)) ++n;
  // Advance the clock to the horizon even if no event landed exactly there,
  // so samplers closing at RunUntil()'s return observe the full window —
  // but never move backwards and never to infinity.
  if (horizon != kTimeInfinity && horizon > now_) now_ = horizon;
  return n;
}

PeriodicTask::PeriodicTask(Simulator& sim, SimDuration period, EventFn fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  FFS_CHECK(period_ > 0);
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start(SimTime first_fire) {
  FFS_CHECK_MSG(!running_, "PeriodicTask already running");
  running_ = true;
  Arm(first_fire);
}

void PeriodicTask::Arm(SimTime when) {
  pending_ = sim_.At(when, [this] {
    if (!running_) return;
    fn_();
    if (running_) Arm(sim_.Now() + period_);
  });
}

void PeriodicTask::Stop() {
  if (!running_) return;
  running_ = false;
  sim_.Cancel(pending_);  // refused when Stop() runs inside the fired event
}

}  // namespace fluidfaas::sim
