// Pluggable queueing disciplines for the platform's central pending set.
//
// The platform used to keep pending requests in one hard-coded
// std::multimap ordered by adjusted deadline. That policy is now the fifo
// KeyedQueue below, and two alternatives ride the same seam:
//
//   fifo — KeyedQueue on the caller-supplied priority (the §5.3 adjusted
//          deadline), insertion order on ties. Offers items in the old
//          multimap's order.
//   fair — FairQueue: per-function start-time fair queueing (SFQ): every
//          item gets virtual start/finish tags; dequeue picks the minimum
//          finish tag, so a bursty function cannot starve its
//          co-residents. MQFQ-style stickiness dequeues up to
//          kStickyBatch consecutive items from the chosen function so its
//          backlog stays together (and lands on its warm instance) before
//          the scheduler re-picks.
//   edf  — KeyedQueue on the absolute SLO deadline: earliest first.
//
// A kKeep verdict may carry a keep-through bound; KeyedQueue then jumps
// over the refused run instead of offering each item (DESIGN.md §9).
//
// Every discipline is strictly deterministic: ties break by the arrival
// sequence number stamped at Enqueue, never by pointer or hash order
// (test-pinned across parallel sweep job counts).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "qos/qos_config.h"

namespace fluidfaas::qos {

/// One pending request as the discipline sees it. `priority` is the
/// caller-computed adjusted deadline (deadline − estimated execution −
/// load, §5.3); `service_estimate` is that same estimated execution + load
/// time, which fair queueing uses as the virtual-time cost of the item.
struct QueueItem {
  RequestId rid;
  FunctionId fn;
  std::uint64_t seq = 0;  // arrival order, stamped by the discipline
  SimTime deadline = 0;
  SimTime priority = 0;
  SimDuration service_estimate = 0;
};

/// What the drain callback did with an offered item, and for a kKeep, how
/// far the refusal reaches. Converts implicitly from an action, so a
/// callback may simply `return DrainVerdict::kDispatch;`.
class DrainVerdict {
 public:
  enum class Action : std::uint8_t { kKeep, kDispatch, kDrop };
  // Could not place it now; stays queued.
  static constexpr Action kKeep = Action::kKeep;
  // Admitted to an instance; leaves the queue.
  static constexpr Action kDispatch = Action::kDispatch;
  // Shed by admission review; leaves the queue, and fair queueing does not
  // advance virtual time for it.
  static constexpr Action kDrop = Action::kDrop;

  constexpr DrainVerdict(Action action) : action_(action) {}

  /// A kKeep with keep-through bound `bound`. It promises that the callback
  /// would answer kKeep, with no side effect, to every item of the same
  /// function with deadline <= bound that the admission review admits
  /// (AdmissionController::ReviewAtDispatch). The promise holds until the
  /// callback next answers kDispatch or a kKeep without a bound; a kDrop
  /// leaves it standing. `bound` is at least the offered item's deadline.
  static constexpr DrainVerdict KeepThrough(SimTime bound) {
    DrainVerdict v(kKeep);
    v.keep_through_ = bound;
    return v;
  }

  constexpr bool bounded() const { return keep_through_ != kUnbounded; }
  /// The keep-through bound; meaningful only when bounded().
  constexpr SimTime keep_through() const { return keep_through_; }

  friend constexpr bool operator==(const DrainVerdict& v, Action a) {
    return v.action_ == a;
  }

 private:
  static constexpr SimTime kUnbounded = std::numeric_limits<SimTime>::min();

  Action action_;
  SimTime keep_through_ = kUnbounded;
};

/// How per-instance stage queues order their work under this discipline.
enum class StageOrder {
  kArrival,   // plain FIFO (fifo/fair)
  kDeadline,  // sorted by (deadline, seq) — edf
};

class QueueDiscipline {
 public:
  using DrainFn = std::function<DrainVerdict(const QueueItem&)>;

  virtual ~QueueDiscipline() = default;

  virtual const char* name() const = 0;

  /// Add an item. The discipline stamps item.seq from its own counter, so
  /// callers need not (and must not) manage sequence numbers.
  virtual void Enqueue(QueueItem item) = 0;

  /// Remove a queued request (timeout expiry mid-queue). False when the
  /// request is not queued here.
  virtual bool Remove(RequestId rid) = 0;

  /// Offer queued items to `fn` in discipline order. Items answered
  /// kDispatch or kDrop leave the queue; kKeep items stay (and, for fair
  /// queueing, block the rest of their function's backlog for this pass —
  /// per-function order is always preserved). A discipline may skip items
  /// a standing keep-through bound covers (DrainVerdict::KeepThrough);
  /// nothing may Enqueue or Remove while a pass runs.
  virtual void Drain(const DrainFn& fn) = 0;

  virtual std::size_t size() const = 0;

  /// Queued items of one function (backpressure signal).
  virtual std::size_t DepthOf(FunctionId fn) const = 0;

  /// The full queue in dequeue order (tests and diagnostics only).
  virtual std::vector<QueueItem> Snapshot() const = 0;

  /// Stage-queue ordering that matches this discipline.
  virtual StageOrder stage_order() const { return StageOrder::kArrival; }

 protected:
  std::uint64_t NextSeq() { return next_seq_++; }

 private:
  std::uint64_t next_seq_ = 0;
};

/// Ascending (key, seq) over one time field of the item, insertion order
/// on ties. Fifo() keys on `priority`: with priority = adjusted deadline
/// this reproduces the pre-QoS multimap event for event. Edf() keys on the
/// absolute SLO `deadline`, and its stage queues sort the same way.
///
/// Items live in lanes: one lane per (function, service_estimate,
/// key − deadline), so inside a lane key order is deadline order (a
/// function has at most two lanes, warm and cold). Drain merges the lane
/// heads in (key, seq) order. A bounded kKeep of a lane's head moves that
/// lane past every item with deadline <= the bound; the first kDispatch or
/// unbounded kKeep after such a jump re-seats every lane at its first item
/// past the current position, so skipped items that come later in the
/// order are offered again.
class KeyedQueue final : public QueueDiscipline {
 public:
  static KeyedQueue Fifo() {
    return {"fifo", &QueueItem::priority, StageOrder::kArrival};
  }
  static KeyedQueue Edf() {
    return {"edf", &QueueItem::deadline, StageOrder::kDeadline};
  }

  const char* name() const override { return name_; }
  void Enqueue(QueueItem item) override;
  bool Remove(RequestId rid) override;
  void Drain(const DrainFn& fn) override;
  std::size_t size() const override { return size_; }
  std::size_t DepthOf(FunctionId fn) const override;
  std::vector<QueueItem> Snapshot() const override;
  StageOrder stage_order() const override { return stage_order_; }

 private:
  using Key = SimTime QueueItem::*;
  using Pos = std::pair<SimTime, std::uint64_t>;  // (key, seq)
  using Items = std::map<Pos, QueueItem>;

  struct Lane {
    FunctionId fn;
    SimDuration service_estimate;
    SimDuration offset;  // key − deadline, the same for every item
    Items items;
    Items::iterator cursor;  // the next item this pass offers
  };

  KeyedQueue(const char* name, Key key, StageOrder stage_order)
      : name_(name), key_(key), stage_order_(stage_order) {}

  /// The lane whose cursor holds the smallest (key, seq); null when every
  /// lane is exhausted.
  Lane* NextLane();

  const char* name_;
  Key key_;
  StageOrder stage_order_;
  std::vector<Lane> lanes_;  // no empty lane outside a pass
  std::size_t size_ = 0;
  bool draining_ = false;
};

/// Start-time fair queueing over per-function flows with MQFQ-style
/// stickiness. Integer virtual time in µs; item tags are
///   S = max(V, finish tag of the flow's previous item)
///   F = S + max(1, service_estimate)
/// and dispatch advances V to the dispatched item's start tag. Flow
/// selection is min head-item F, ties by FunctionId value then seq —
/// deterministic by construction.
class FairQueue final : public QueueDiscipline {
 public:
  /// Consecutive dequeues granted to one function's backlog before the
  /// scheduler re-picks the minimum finish tag (MQFQ-Sticky); keeps a
  /// function's burst together so it lands on its warm instance.
  static constexpr int kStickyBatch = 4;

  const char* name() const override { return "fair"; }
  void Enqueue(QueueItem item) override;
  bool Remove(RequestId rid) override;
  void Drain(const DrainFn& fn) override;
  std::size_t size() const override { return size_; }
  std::size_t DepthOf(FunctionId fn) const override;
  std::vector<QueueItem> Snapshot() const override;

 private:
  struct Tagged {
    QueueItem item;
    std::uint64_t start = 0;
    std::uint64_t finish = 0;
  };
  struct Flow {
    std::deque<Tagged> backlog;
    std::uint64_t last_finish = 0;
  };

  /// Flow with the minimum head finish tag, skipping `blocked`; flows_.end()
  /// when everything is blocked or empty.
  std::map<std::int32_t, Flow>::iterator PickFlow(
      const std::vector<std::int32_t>& blocked);

  std::map<std::int32_t, Flow> flows_;  // key: FunctionId value (ordered)
  std::uint64_t vtime_ = 0;
  std::size_t size_ = 0;
};

/// Build the discipline `config.queue` names; throws FfsError on unknown
/// names (listing the registered ones).
std::unique_ptr<QueueDiscipline> MakeQueueDiscipline(const QosConfig& config);

}  // namespace fluidfaas::qos
