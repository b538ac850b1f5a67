// Typed publish/subscribe bus for the simulation events of sim/events.h.
//
// Dispatch is synchronous and deterministic: Publish() invokes the handlers
// for the event's exact type, in subscription order, before returning. The
// bus does no buffering, so observers are zero-perturbation: a run with N
// subscribers executes the same simulated schedule as a run with none.
//
// Subscriptions are cancellable: Subscribe() returns a SubscriptionId that
// can be passed to Unsubscribe(), and SubscribeScoped() wraps that in an
// RAII handle so transient observers (fault injectors, trace exporters,
// per-run platform hooks) detach when they go out of scope. Unsubscribing
// is safe even from inside a handler of the event being dispatched: the
// entry is tombstoned during dispatch and compacted afterwards. Handlers
// subscribed during a dispatch of the same type do not see the in-flight
// event (the dispatch snapshot is taken at Publish time).
//
// The bus is closed-world: it carries exactly the types on sim::Events, and
// keeps one handler vector per type in a tuple, so Subscribe and Publish
// find their vector at compile time. Adding an event means adding a struct
// to sim/events.h plus one entry in sim::Events; any other type fails to
// compile.
#pragma once

#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/events.h"

namespace fluidfaas::sim {

class EventBus {
 public:
  using SubscriptionId = std::uint64_t;

  /// RAII subscription handle: unsubscribes on destruction. Movable,
  /// non-copyable; Release() detaches early.
  class Subscription {
   public:
    Subscription() = default;
    Subscription(EventBus* bus, SubscriptionId id) : bus_(bus), id_(id) {}
    ~Subscription() { Release(); }
    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;
    Subscription(Subscription&& other) noexcept
        : bus_(other.bus_), id_(other.id_) {
      other.bus_ = nullptr;
    }
    Subscription& operator=(Subscription&& other) noexcept {
      if (this != &other) {
        Release();
        bus_ = other.bus_;
        id_ = other.id_;
        other.bus_ = nullptr;
      }
      return *this;
    }

    void Release() {
      if (bus_ != nullptr) bus_->Unsubscribe(id_);
      bus_ = nullptr;
    }

   private:
    EventBus* bus_ = nullptr;
    SubscriptionId id_ = 0;
  };

  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Register a handler for events of exactly type E. Handlers for one type
  /// run in subscription order. Returns an id for Unsubscribe().
  template <Event E>
  SubscriptionId Subscribe(std::function<void(const E&)> handler) {
    const SubscriptionId id = next_id_++;
    HandlersOf<E>().push_back(Handler<E>{id, std::move(handler)});
    return id;
  }

  /// Subscribe with automatic detach when the returned handle dies.
  template <Event E>
  Subscription SubscribeScoped(std::function<void(const E&)> handler) {
    return Subscription(this, Subscribe<E>(std::move(handler)));
  }

  /// Remove a subscription; false if the id is unknown (already removed).
  /// Safe during dispatch: a handler may unsubscribe itself (or a peer) —
  /// the slot is tombstoned immediately and skipped for the rest of the
  /// dispatch, then reclaimed once the bus is quiescent. Searches every
  /// type's vector; runs a handful of times per simulation.
  bool Unsubscribe(SubscriptionId id) {
    return std::apply(
        [this, id](auto&... vecs) { return (Tombstone(vecs, id) || ...); },
        handlers_);
  }

  /// Deliver `ev` to every subscriber of type E, synchronously.
  template <Event E>
  void Publish(const E& ev) {
    ++published_;
    // Index-based loop over a size snapshot: handlers subscribed during
    // this dispatch (which may reallocate the vector) neither run for the
    // in-flight event nor invalidate the traversal, and tombstoned entries
    // are skipped.
    std::vector<Handler<E>>& vec = HandlersOf<E>();
    const std::size_t n = vec.size();
    ++dispatch_depth_;
    for (std::size_t i = 0; i < n; ++i) {
      if (vec[i].fn) vec[i].fn(ev);
    }
    if (--dispatch_depth_ == 0) Compact(vec);
  }

  /// Total events published (delivered or not); handy in tests.
  std::uint64_t published() const { return published_; }

 private:
  /// One subscription; a null `fn` is a tombstone.
  template <typename E>
  struct Handler {
    SubscriptionId id = 0;
    std::function<void(const E&)> fn;
  };

  /// The handler table's type (declared only, for decltype).
  template <typename... E>
  static std::tuple<std::vector<Handler<E>>...> TableOf(TypeList<E...>);

  template <typename E>
  std::vector<Handler<E>>& HandlersOf() {
    return std::get<std::vector<Handler<E>>>(handlers_);
  }

  template <typename E>
  bool Tombstone(std::vector<Handler<E>>& vec, SubscriptionId id) {
    for (Handler<E>& h : vec) {
      if (h.id == id && h.fn) {
        h.fn = nullptr;  // compacted outside dispatch
        if (dispatch_depth_ == 0) Compact(vec);
        return true;
      }
    }
    return false;
  }

  /// Drop tombstones, keeping the live handlers in subscription order.
  template <typename E>
  static void Compact(std::vector<Handler<E>>& vec) {
    std::erase_if(vec, [](const Handler<E>& h) { return !h.fn; });
  }

  decltype(TableOf(Events{})) handlers_;
  std::uint64_t published_ = 0;
  SubscriptionId next_id_ = 1;
  int dispatch_depth_ = 0;
};

}  // namespace fluidfaas::sim
