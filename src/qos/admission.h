// Admission control and overload shedding for the platform intake.
//
// Two checkpoints, both returning a typed sim::RejectCause:
//
//   AdmitAtSubmit   — at Submit(): token-bucket rate limiting and the
//                     pending-queue depth cap. At submission the deadline
//                     is always one full SLO away, so infeasibility cannot
//                     be judged here.
//   ReviewAtDispatch — when the pending set offers a queued request to the
//                      routing policy: shed it once even an immediate,
//                      unqueued execution could no longer meet the
//                      deadline. Dropping doomed work is what buys goodput
//                      back under overload — capacity stops being spent on
//                      requests that can only miss.
//
// NullAdmission (the default) admits everything and keeps the platform's
// fault-free event stream byte-identical to the pre-QoS build.
#pragma once

#include <memory>

#include "common/types.h"
#include "qos/qos_config.h"
#include "qos/queue_discipline.h"
#include "sim/events.h"

namespace fluidfaas::qos {

class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  virtual const char* name() const = 0;

  /// Gate a new submission. `queue` is the central pending set (for depth
  /// caps); returns kNone to admit.
  virtual sim::RejectCause AdmitAtSubmit(const QueueItem& item, SimTime now,
                                         const QueueDiscipline& queue) = 0;

  /// Re-judge a queued request as the pending set offers it for dispatch;
  /// a non-kNone answer sheds it.
  ///
  /// Contract: the review has no side effects, and at a fixed `now`, if it
  /// admits an item, it also admits every item of the same function with
  /// the same service_estimate and a deadline no earlier. A key-ordered
  /// queue relies on this when it jumps over a refused run without
  /// offering it (DrainVerdict::KeepThrough, DESIGN.md §9): the run's
  /// items would all have passed the review.
  virtual sim::RejectCause ReviewAtDispatch(const QueueItem& item,
                                            SimTime now) = 0;
};

/// Admit everything (the default; zero-cost and inert).
class NullAdmission final : public AdmissionController {
 public:
  const char* name() const override { return "none"; }
  sim::RejectCause AdmitAtSubmit(const QueueItem&, SimTime,
                                 const QueueDiscipline&) override {
    return sim::RejectCause::kNone;
  }
  sim::RejectCause ReviewAtDispatch(const QueueItem&, SimTime) override {
    return sim::RejectCause::kNone;
  }
};

/// Token bucket + depth cap + deadline-infeasible shedding. The bucket is
/// on when rate_rps > 0 and the cap when max_queue_depth > 0; shedding is
/// always on. Refill is computed from simulated time, so the controller is
/// exactly as deterministic as the run driving it.
class ShedAdmission final : public AdmissionController {
 public:
  /// Token bucket burst size (full bucket), in admits.
  static constexpr double kBucket = 32.0;

  explicit ShedAdmission(const QosConfig& config);

  const char* name() const override { return "shed"; }
  sim::RejectCause AdmitAtSubmit(const QueueItem& item, SimTime now,
                                 const QueueDiscipline& queue) override;
  sim::RejectCause ReviewAtDispatch(const QueueItem& item,
                                    SimTime now) override;

 private:
  double rate_rps_;
  std::size_t max_depth_;

  double tokens_ = kBucket;
  SimTime last_refill_ = 0;
};

/// The discipline/controller pair the platform installs per run.
struct QueuePolicy {
  std::unique_ptr<QueueDiscipline> discipline;
  std::unique_ptr<AdmissionController> admission;
};

/// Build the controller `config.admission` names; throws FfsError on
/// unknown names.
std::unique_ptr<AdmissionController> MakeAdmissionController(
    const QosConfig& config);

/// Build the full pair from `config` ("fifo"/"none" default).
QueuePolicy MakeQueuePolicy(const QosConfig& config);

}  // namespace fluidfaas::qos
