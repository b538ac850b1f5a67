#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace fluidfaas::sim {
namespace {

// The std heap algorithms build a max-heap, so "greater" is the later event.
bool Later(const EventQueue::Fired& a, const EventQueue::Fired& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.id > b.id;
}

}  // namespace

EventId EventQueue::Schedule(SimTime when, EventFn fn) {
  FFS_CHECK_MSG(when >= 0, "cannot schedule before simulation start");
  const EventId id = next_id_++;
  heap_.push_back(Fired{when, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  auto it = std::find_if(heap_.begin(), heap_.end(),
                         [id](const Fired& e) { return e.id == id; });
  if (it == heap_.end()) return false;
  heap_.erase(it);
  std::make_heap(heap_.begin(), heap_.end(), Later);
  return true;
}

SimTime EventQueue::PeekTime() const {
  return heap_.empty() ? kTimeInfinity : heap_.front().time;
}

EventQueue::Fired EventQueue::Pop() {
  FFS_CHECK_MSG(!heap_.empty(), "Pop() on empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  Fired e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

}  // namespace fluidfaas::sim
