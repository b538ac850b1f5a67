#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace fluidfaas::sim {
namespace {

// The std heap algorithms build a max-heap, so "greater" is the later event.
// A function object, not a function pointer, so they inline it.
struct Later {
  bool operator()(const EventQueue::Fired& a,
                  const EventQueue::Fired& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};

}  // namespace

bool EventQueue::TailFirst() const {
  return heap_.empty() ||
         (!tail_.empty() && Later{}(heap_.front(), tail_.front()));
}

EventId EventQueue::Schedule(SimTime when, EventFn fn) {
  const EventId id = Reserve();
  ScheduleAs(when, id, std::move(fn));
  return id;
}

void EventQueue::ScheduleAs(SimTime when, EventId id, EventFn fn) {
  FFS_CHECK_MSG(when >= 0, "cannot schedule before simulation start");
  FFS_CHECK_MSG(id > 0 && id < next_id_, "scheduling under an unissued id");
  Fired e{when, id, std::move(fn)};
  // An event after the tail's last entry keeps the tail sorted. The full
  // key decides: a reserved id may be older than the tail's last one.
  if (tail_.empty() ? heap_.empty() || when >= heap_.front().time
                    : Later{}(e, tail_.back())) {
    tail_.push_back(std::move(e));
  } else {
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
}

bool EventQueue::Cancel(EventId id) {
  const auto match = [id](const Fired& e) { return e.id == id; };
  if (auto it = std::find_if(tail_.begin(), tail_.end(), match);
      it != tail_.end()) {
    tail_.erase(it);
    return true;
  }
  auto it = std::find_if(heap_.begin(), heap_.end(), match);
  if (it == heap_.end()) return false;
  heap_.erase(it);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  return true;
}

SimTime EventQueue::PeekTime() const {
  if (empty()) return kTimeInfinity;
  return TailFirst() ? tail_.front().time : heap_.front().time;
}

EventQueue::Fired EventQueue::Pop() {
  FFS_CHECK_MSG(!empty(), "Pop() on empty event queue");
  if (TailFirst()) {
    Fired e = std::move(tail_.front());
    tail_.pop_front();
    return e;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Fired e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

}  // namespace fluidfaas::sim
