#include "metrics/recorder.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "gpu/mig_partition.h"

namespace fluidfaas::metrics {
namespace {

// Σ over slices of bound (occupied) time.
SimDuration BoundTime(const Recorder& rec) {
  SimDuration t = 0;
  for (const Recorder::SliceTotals& s : rec.PerSliceTotals()) t += s.bound;
  return t;
}

class RecorderTest : public ::testing::Test {
 protected:
  RecorderTest()
      : cluster_(gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition())),
        rec_(cluster_) {}

  // Slice ids: GPU 0 holds {0, 1, 2}, GPU 1 holds {3, 4, 5}.
  gpu::Cluster cluster_;
  Recorder rec_;
};

TEST_F(RecorderTest, RequestLifecycle) {
  const RequestId r = rec_.NewRequest(FunctionId(0), Seconds(1), Seconds(2));
  EXPECT_FALSE(rec_.record(r).done());
  rec_.record(r).exec_time = Millis(300);
  rec_.Complete(r, Seconds(1) + Millis(800));
  const auto& rr = rec_.record(r);
  EXPECT_TRUE(rr.done());
  EXPECT_TRUE(rr.SloHit());
  EXPECT_EQ(rr.Latency(), Millis(800));
  EXPECT_EQ(rec_.completed_requests(), 1u);
}

TEST_F(RecorderTest, DoubleCompleteThrows) {
  const RequestId r = rec_.NewRequest(FunctionId(0), 0, Seconds(1));
  rec_.Complete(r, 1);
  EXPECT_THROW(rec_.Complete(r, 2), FfsError);
}

TEST_F(RecorderTest, SloHitRateCountsOutstandingAsMisses) {
  const RequestId hit = rec_.NewRequest(FunctionId(0), 0, Seconds(1));
  const RequestId miss = rec_.NewRequest(FunctionId(0), 0, Seconds(1));
  const RequestId open = rec_.NewRequest(FunctionId(1), 0, Seconds(1));
  (void)open;
  rec_.Complete(hit, Millis(500));
  rec_.Complete(miss, Seconds(2));
  EXPECT_NEAR(rec_.SloHitRate(true), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(rec_.SloHitRate(false), 0.5, 1e-12);
  // Per-function.
  EXPECT_NEAR(rec_.SloHitRate(FunctionId(0), true), 0.5, 1e-12);
  EXPECT_NEAR(rec_.SloHitRate(FunctionId(1), true), 0.0, 1e-12);
}

TEST_F(RecorderTest, MigAndGpuTimeAccounting) {
  // Slice 0 (4g on GPU 0) busy [0, 10 s); slice 1 (2g on GPU 0) busy
  // [5 s, 15 s); slice 3 (4g on GPU 1) busy [0, 4 s).
  for (SliceId s : {SliceId(0), SliceId(1), SliceId(3)}) {
    rec_.SliceBound(s, 0);
  }
  rec_.SliceBusy(SliceId(0), 0);
  rec_.SliceBusy(SliceId(3), 0);
  rec_.SliceIdle(SliceId(3), Seconds(4));
  rec_.SliceBusy(SliceId(1), Seconds(5));
  rec_.SliceIdle(SliceId(0), Seconds(10));
  rec_.SliceIdle(SliceId(1), Seconds(15));
  rec_.SliceReleased(SliceId(3), Seconds(16));
  rec_.Close(Seconds(20));

  // MIG time = 10 + 10 + 4 = 24 s of busy slice time.
  EXPECT_EQ(rec_.MigTime(), Seconds(24));
  // GPU 0 has >=1 busy slice over [0, 15); GPU 1 over [0, 4): 19 s.
  EXPECT_EQ(rec_.GpuTime(), Seconds(19));
  // Occupied: slices 0/1 bound to close (20+20), slice 3 for 16 s.
  EXPECT_EQ(BoundTime(rec_), Seconds(56));
}

TEST_F(RecorderTest, BusyGpcSignalTracksWeights) {
  rec_.SliceBound(SliceId(0), 0);  // 4g
  rec_.SliceBound(SliceId(1), 0);  // 2g
  rec_.SliceBusy(SliceId(0), 0);
  rec_.SliceBusy(SliceId(1), Seconds(5));
  rec_.SliceIdle(SliceId(0), Seconds(10));
  rec_.SliceIdle(SliceId(1), Seconds(10));
  rec_.Close(Seconds(10));
  // [0,5): 4 GPCs busy; [5,10): 6 -> mean 5.
  EXPECT_NEAR(rec_.busy_gpcs().MeanOver(0, Seconds(10)), 5.0, 1e-9);
}

TEST_F(RecorderTest, PerGpuOccupancyWeightsByGpcs) {
  // Bind 4g on GPU 0 the whole 10 s, busy half of it.
  rec_.SliceBound(SliceId(0), 0);
  rec_.SliceBusy(SliceId(0), 0);
  rec_.SliceIdle(SliceId(0), Seconds(5));
  rec_.Close(Seconds(10));
  auto occ = rec_.PerGpuOccupancy();
  ASSERT_EQ(occ.size(), 2u);
  EXPECT_NEAR(occ[0].occupied, 4.0 / 7.0, 1e-9);
  EXPECT_NEAR(occ[0].active, 0.5 * 4.0 / 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(occ[1].occupied, 0.0);
}

// GPU 0 is repartitioned mid-run: its retired slices keep their bound and
// busy time, divided by a whole GPU's 7 GPCs. Slices still bound (and busy)
// at Close count up to the end. Exact values.
TEST_F(RecorderTest, PerGpuOccupancyAcrossRepartition) {
  rec_.SliceBound(SliceId(0), Millis(250));  // 4g on GPU 0
  rec_.SliceBound(SliceId(4), Millis(700));  // 2g on GPU 1
  rec_.SliceBusy(SliceId(0), Seconds(1));
  rec_.SliceBound(SliceId(2), Seconds(1));  // 1g on GPU 0
  rec_.SliceReleased(SliceId(2), Seconds(2));
  rec_.SliceIdle(SliceId(0), Millis(2300));
  rec_.SliceBusy(SliceId(4), Seconds(3));
  rec_.SliceReleased(SliceId(0), Millis(3100));
  const std::vector<SliceId> fresh = cluster_.RepartitionGpu(
      GpuId(0), gpu::MigPartition::Parse("3g.40gb+3g.40gb"));
  rec_.SyncSlices(cluster_);
  rec_.SliceBound(fresh[0], Seconds(4));
  rec_.SliceBusy(fresh[0], Millis(4500));
  rec_.SliceIdle(fresh[0], Millis(6900));
  rec_.Close(Seconds(10) + 7);
  const auto occ = rec_.PerGpuOccupancy();
  ASSERT_EQ(occ.size(), 2u);
  // GPU 0: (4 * 2.85 s + 1 * 1 s + 3 * 6.000007 s) / 10.000007 s / 7, and
  // (4 * 1.3 s + 3 * 2.4 s) / 10.000007 s / 7.
  EXPECT_EQ(occ[0].occupied, 0.43428571028571705);
  EXPECT_EQ(occ[0].active, 0.17714273314294396);
  EXPECT_EQ(occ[1].occupied, 0.2657142997142759);
  EXPECT_EQ(occ[1].active, 0.20000005999995801);
}

// A GPU that loses GPCs in a repartition stays at or below 100%: the
// default 4g+2g+1g all bound for 5 s (35 GPC-s), then 3g+3g all bound for
// 5 s (30 GPC-s), occupies 65 of the 70 GPC-s the GPU offers.
TEST_F(RecorderTest, PerGpuOccupancyAfterShrinkingRepartition) {
  for (int s = 0; s < 3; ++s) rec_.SliceBound(SliceId(s), 0);
  for (int s = 0; s < 3; ++s) rec_.SliceReleased(SliceId(s), Seconds(5));
  const std::vector<SliceId> fresh = cluster_.RepartitionGpu(
      GpuId(0), gpu::MigPartition::Parse("3g.40gb+3g.40gb"));
  rec_.SyncSlices(cluster_);
  for (SliceId s : fresh) rec_.SliceBound(s, Seconds(5));
  rec_.Close(Seconds(10));
  const auto occ = rec_.PerGpuOccupancy();
  ASSERT_EQ(occ.size(), 2u);
  EXPECT_EQ(occ[0].occupied, 65.0 / 70.0);
  EXPECT_EQ(occ[0].active, 0.0);
  EXPECT_EQ(occ[1].occupied, 0.0);
}

TEST_F(RecorderTest, InvariantViolationsThrow) {
  EXPECT_THROW(rec_.SliceBusy(SliceId(0), 0), FfsError);  // busy unbound
  rec_.SliceBound(SliceId(0), 0);
  EXPECT_THROW(rec_.SliceBound(SliceId(0), 1), FfsError);  // double bind
  rec_.SliceBusy(SliceId(0), 1);
  EXPECT_THROW(rec_.SliceBusy(SliceId(0), 2), FfsError);   // double busy
  EXPECT_THROW(rec_.SliceReleased(SliceId(0), 2), FfsError);  // busy release
  rec_.SliceIdle(SliceId(0), 3);
  EXPECT_THROW(rec_.SliceIdle(SliceId(0), 4), FfsError);   // double idle
}

TEST_F(RecorderTest, CloseIsTerminalAndIdempotencyGuarded) {
  rec_.Close(Seconds(1));
  EXPECT_THROW(rec_.Close(Seconds(2)), FfsError);
}

TEST_F(RecorderTest, ThroughputVariants) {
  for (int i = 0; i < 10; ++i) {
    const RequestId r = rec_.NewRequest(FunctionId(0), 0, Seconds(100));
    rec_.Complete(r, Seconds(i + 1));
  }
  rec_.Close(Seconds(20));
  EXPECT_NEAR(rec_.WindowedThroughput(Seconds(5)), 1.0, 1e-12);
}

TEST_F(RecorderTest, BreakdownAveragesCompletedOnly) {
  const RequestId a = rec_.NewRequest(FunctionId(0), 0, Seconds(1));
  rec_.record(a).queue_time = Millis(100);
  rec_.record(a).exec_time = Millis(200);
  rec_.Complete(a, Millis(300));
  const RequestId b = rec_.NewRequest(FunctionId(0), 0, Seconds(1));
  rec_.record(b).queue_time = Millis(300);
  rec_.record(b).exec_time = Millis(400);
  rec_.record(b).transfer_time = Millis(50);
  rec_.Complete(b, Millis(750));
  const RequestId open = rec_.NewRequest(FunctionId(0), 0, Seconds(1));
  rec_.record(open).queue_time = Seconds(10);  // must not count

  auto bd = rec_.MeanBreakdown();
  EXPECT_NEAR(bd.queue, ToMillis(Millis(200)) * 1000, 1e-6);
  EXPECT_NEAR(bd.exec, 300e3, 1e-6);
  EXPECT_NEAR(bd.transfer, 25e3, 1e-6);
}

TEST_F(RecorderTest, LatenciesFilterByFunction) {
  EXPECT_EQ(rec_.LatencyPercentile(0.95), 0.0);  // no completions yet
  const RequestId a = rec_.NewRequest(FunctionId(0), 0, Seconds(1));
  rec_.Complete(a, Millis(100));
  const RequestId b = rec_.NewRequest(FunctionId(1), 0, Seconds(1));
  rec_.Complete(b, Millis(200));
  EXPECT_EQ(rec_.LatenciesSeconds().size(), 2u);
  auto only0 = rec_.LatenciesSeconds(FunctionId(0));
  ASSERT_EQ(only0.size(), 1u);
  EXPECT_NEAR(only0[0], 0.1, 1e-9);
  EXPECT_NEAR(rec_.LatencyPercentile(0.5), 0.15, 1e-9);  // both functions
}

TEST_F(RecorderTest, PerSliceTotals) {
  rec_.SliceBound(SliceId(2), 0);  // 1g on GPU 0
  rec_.SliceBusy(SliceId(2), 0);
  rec_.SliceIdle(SliceId(2), Seconds(3));
  rec_.SliceReleased(SliceId(2), Seconds(5));
  rec_.Close(Seconds(10));
  auto totals = rec_.PerSliceTotals();
  ASSERT_EQ(totals.size(), 6u);
  EXPECT_EQ(totals[2].busy, Seconds(3));
  EXPECT_EQ(totals[2].bound, Seconds(5));
  EXPECT_EQ(totals[2].gpcs, 1);
  EXPECT_EQ(totals[0].busy, 0);
}

TEST_F(RecorderTest, CloseSettlesOpenIntervals) {
  rec_.SliceBound(SliceId(0), 0);
  rec_.SliceBusy(SliceId(0), Seconds(2));
  rec_.Close(Seconds(10));
  EXPECT_EQ(rec_.MigTime(), Seconds(8));
  EXPECT_EQ(BoundTime(rec_), Seconds(10));
  EXPECT_EQ(rec_.GpuTime(), Seconds(8));
}

}  // namespace
}  // namespace fluidfaas::metrics
