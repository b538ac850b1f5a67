#include "qos/admission.h"

#include <algorithm>

#include "common/error.h"

namespace fluidfaas::qos {

ShedAdmission::ShedAdmission(const QosConfig& config)
    : rate_rps_(config.rate_rps), max_depth_(config.max_queue_depth) {}

sim::RejectCause ShedAdmission::AdmitAtSubmit(const QueueItem& item,
                                              SimTime now,
                                              const QueueDiscipline& queue) {
  (void)item;
  if (max_depth_ > 0 && queue.size() >= max_depth_) {
    return sim::RejectCause::kQueueFull;
  }
  if (rate_rps_ > 0.0) {
    tokens_ = std::min(
        kBucket, tokens_ + ToSeconds(now - last_refill_) * rate_rps_);
    last_refill_ = now;
    if (tokens_ < 1.0) return sim::RejectCause::kRateLimited;
    tokens_ -= 1.0;
  }
  return sim::RejectCause::kNone;
}

sim::RejectCause ShedAdmission::ReviewAtDispatch(const QueueItem& item,
                                                 SimTime now) {
  // Even dispatched this instant onto an idle instance the request costs
  // at least its service estimate; past this point it can only miss.
  if (now + item.service_estimate > item.deadline) {
    return sim::RejectCause::kDeadlineInfeasible;
  }
  return sim::RejectCause::kNone;
}

std::unique_ptr<AdmissionController> MakeAdmissionController(
    const QosConfig& config) {
  if (config.admission == "none") return std::make_unique<NullAdmission>();
  if (config.admission == "shed") {
    return std::make_unique<ShedAdmission>(config);
  }
  throw FfsError("unknown admission controller: " + config.admission +
                 " (known: none, shed)");
}

QueuePolicy MakeQueuePolicy(const QosConfig& config) {
  QueuePolicy qp;
  qp.discipline = MakeQueueDiscipline(config);
  qp.admission = MakeAdmissionController(config);
  return qp;
}

}  // namespace fluidfaas::qos
