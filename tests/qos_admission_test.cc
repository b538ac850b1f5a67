// Admission-control semantics (DESIGN.md §9): the token bucket's burst and
// deterministic sim-time refill, the pending-depth cap, deadline-infeasible
// shedding at dispatch, and the typed RejectCause on every refusal.
#include "qos/admission.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace fluidfaas::qos {
namespace {

QueueItem Item(int rid, SimTime deadline, SimDuration est) {
  QueueItem item;
  item.rid = RequestId(rid);
  item.fn = FunctionId(0);
  item.deadline = deadline;
  item.priority = deadline;
  item.service_estimate = est;
  return item;
}

TEST(NullAdmissionTest, AdmitsEverything) {
  NullAdmission none;
  KeyedQueue q = KeyedQueue::Fifo();
  for (int i = 0; i < 1000; ++i) q.Enqueue(Item(i, 1, 1));
  EXPECT_EQ(none.AdmitAtSubmit(Item(0, 1, 1), 0, q),
            sim::RejectCause::kNone);
  // Hopelessly late work is still not shed by the null controller.
  EXPECT_EQ(none.ReviewAtDispatch(Item(0, 1, Seconds(100)), Seconds(50)),
            sim::RejectCause::kNone);
}

TEST(ShedAdmissionTest, DepthCapRejectsWithQueueFull) {
  QosConfig cfg;
  cfg.admission = "shed";
  cfg.max_queue_depth = 2;
  ShedAdmission shed(cfg);
  KeyedQueue q = KeyedQueue::Fifo();
  EXPECT_EQ(shed.AdmitAtSubmit(Item(0, 1, 1), 0, q),
            sim::RejectCause::kNone);
  q.Enqueue(Item(0, 1, 1));
  q.Enqueue(Item(1, 1, 1));
  EXPECT_EQ(shed.AdmitAtSubmit(Item(2, 1, 1), 0, q),
            sim::RejectCause::kQueueFull);
}

TEST(ShedAdmissionTest, TokenBucketSpendsBurstThenRateLimits) {
  QosConfig cfg;
  cfg.admission = "shed";
  cfg.rate_rps = 10.0;
  ShedAdmission shed(cfg);
  KeyedQueue q = KeyedQueue::Fifo();
  const int bucket = static_cast<int>(ShedAdmission::kBucket);
  int rid = 0;
  // The bucket starts full: the burst passes, the next is refused.
  for (int i = 0; i < bucket; ++i) {
    EXPECT_EQ(shed.AdmitAtSubmit(Item(rid++, 1, 1), 0, q),
              sim::RejectCause::kNone)
        << i;
  }
  EXPECT_EQ(shed.AdmitAtSubmit(Item(rid++, 1, 1), 0, q),
            sim::RejectCause::kRateLimited);
  // 10 rps refill: 0.1 s buys exactly one token, and only one.
  const SimTime later = Seconds(0.1);
  EXPECT_EQ(shed.AdmitAtSubmit(Item(rid++, 1, 1), later, q),
            sim::RejectCause::kNone);
  EXPECT_EQ(shed.AdmitAtSubmit(Item(rid++, 1, 1), later, q),
            sim::RejectCause::kRateLimited);
  // A long idle stretch refills to the bucket size, not beyond it.
  const SimTime much_later = Seconds(100.0);
  for (int i = 0; i < bucket; ++i) {
    EXPECT_EQ(shed.AdmitAtSubmit(Item(rid++, 1, 1), much_later, q),
              sim::RejectCause::kNone)
        << i;
  }
  EXPECT_EQ(shed.AdmitAtSubmit(Item(rid++, 1, 1), much_later, q),
            sim::RejectCause::kRateLimited);
}

TEST(ShedAdmissionTest, RateZeroDisablesTheBucket) {
  QosConfig cfg;
  cfg.admission = "shed";
  ShedAdmission shed(cfg);
  KeyedQueue q = KeyedQueue::Fifo();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(shed.AdmitAtSubmit(Item(i, 1, 1), 0, q),
              sim::RejectCause::kNone);
  }
}

TEST(ShedAdmissionTest, ShedsDeadlineInfeasibleWorkAtDispatch) {
  QosConfig cfg;
  cfg.admission = "shed";
  ShedAdmission shed(cfg);
  // Needs 2 s, deadline 1 s away: doomed, shed with the typed cause.
  EXPECT_EQ(shed.ReviewAtDispatch(Item(0, Seconds(1.0), Seconds(2.0)), 0),
            sim::RejectCause::kDeadlineInfeasible);
  // Exactly feasible (now + estimate == deadline) stays admitted.
  EXPECT_EQ(shed.ReviewAtDispatch(Item(1, Seconds(2.0), Seconds(2.0)), 0),
            sim::RejectCause::kNone);
  // The same request becomes infeasible once it has waited too long.
  EXPECT_EQ(shed.ReviewAtDispatch(Item(2, Seconds(2.0), Seconds(2.0)),
                                  Seconds(0.5)),
            sim::RejectCause::kDeadlineInfeasible);
}

TEST(AdmissionFactoryTest, BuildsControllersAndRejectsUnknown) {
  QosConfig cfg;
  EXPECT_STREQ(MakeAdmissionController(cfg)->name(), "none");
  cfg.admission = "shed";
  EXPECT_STREQ(MakeAdmissionController(cfg)->name(), "shed");
  cfg.admission = "lottery";
  EXPECT_THROW(MakeAdmissionController(cfg), FfsError);

  cfg = QosConfig{};
  const QueuePolicy qp = MakeQueuePolicy(cfg);
  EXPECT_STREQ(qp.discipline->name(), "fifo");
  EXPECT_STREQ(qp.admission->name(), "none");
}

TEST(RejectCauseTest, NamesAreStableAndExhaustive) {
  EXPECT_STREQ(sim::Name(sim::RejectCause::kNone), "none");
  EXPECT_STREQ(sim::Name(sim::RejectCause::kQueueFull), "queue-full");
  EXPECT_STREQ(sim::Name(sim::RejectCause::kRateLimited), "rate-limited");
  EXPECT_STREQ(sim::Name(sim::RejectCause::kDeadlineInfeasible),
               "deadline-infeasible");
  EXPECT_EQ(sim::kNumRejectCauses, 4);
}

}  // namespace
}  // namespace fluidfaas::qos
