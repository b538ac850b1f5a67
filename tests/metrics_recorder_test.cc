#include "metrics/recorder.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "gpu/mig_partition.h"
#include "sim/event_bus.h"

namespace fluidfaas::metrics {
namespace {

// Σ over slices of bound (occupied) time.
SimDuration BoundTime(const Recorder& rec) {
  SimDuration t = 0;
  for (const Recorder::SliceTotals& s : rec.PerSliceTotals()) t += s.bound;
  return t;
}

// The recorder's only input is the EventBus: each helper publishes what
// the platform publishes.
class RecorderTest : public ::testing::Test {
 protected:
  RecorderTest()
      : cluster_(gpu::Cluster::Uniform(1, 2, gpu::DefaultPartition())),
        rec_(cluster_) {
    rec_.SubscribeTo(bus_);
  }

  RequestId Submit(FunctionId fn, SimTime at, SimTime deadline) {
    const RequestId rid(static_cast<std::int32_t>(rec_.total_requests()));
    bus_.Publish(sim::RequestSubmitted{rid, fn, at, deadline});
    return rid;
  }
  void Accrue(RequestId rid, sim::RequestPhase phase, SimDuration amount) {
    bus_.Publish(sim::RequestPhaseAccrued{rid, phase, amount, 0});
  }
  void Complete(RequestId rid, SimTime at) {
    bus_.Publish(sim::RequestCompleted{rid, rec_.record(rid).fn, at});
  }
  void Bound(SliceId s, SimTime at) {
    bus_.Publish(sim::SliceBound{s, InstanceId(1), at});
  }
  void Released(SliceId s, SimTime at) {
    bus_.Publish(sim::SliceReleased{s, InstanceId(1), at});
  }
  void Busy(SliceId s, SimTime at) {
    bus_.Publish(sim::SliceBusyBegin{s, InstanceId(1), at});
  }
  void Idle(SliceId s, SimTime at) {
    bus_.Publish(sim::SliceBusyEnd{s, InstanceId(1), at});
  }
  // Repartition GPU 0 to 3g+3g and announce it, as PlatformCore::Commit
  // does; returns the fresh slice ids.
  std::vector<SliceId> RepartitionGpu0(SimTime at) {
    const gpu::MigPartition target =
        gpu::MigPartition::Parse("3g.40gb+3g.40gb");
    std::vector<SliceId> fresh = cluster_.RepartitionGpu(GpuId(0), target);
    bus_.Publish(
        sim::PartitionReconfigured{GpuId(0), at, target.ToString(), 0});
    return fresh;
  }

  // Slice ids: GPU 0 holds {0, 1, 2}, GPU 1 holds {3, 4, 5}.
  gpu::Cluster cluster_;
  sim::EventBus bus_;
  Recorder rec_;
};

TEST_F(RecorderTest, RequestLifecycle) {
  const RequestId r = Submit(FunctionId(0), Seconds(1), Seconds(2));
  EXPECT_FALSE(rec_.record(r).done());
  Accrue(r, sim::RequestPhase::kExec, Millis(300));
  Complete(r, Seconds(1) + Millis(800));
  const auto& rr = rec_.record(r);
  EXPECT_TRUE(rr.done());
  EXPECT_TRUE(rr.SloHit());
  EXPECT_EQ(rr.Latency(), Millis(800));
  EXPECT_EQ(rr.exec_time, Millis(300));
  EXPECT_EQ(rec_.completed_requests(), 1u);
}

TEST_F(RecorderTest, DoubleCompleteThrows) {
  const RequestId r = Submit(FunctionId(0), 0, Seconds(1));
  Complete(r, 1);
  EXPECT_THROW(Complete(r, 2), FfsError);
}

TEST_F(RecorderTest, SloHitRateCountsOutstandingAsMisses) {
  const RequestId hit = Submit(FunctionId(0), 0, Seconds(1));
  const RequestId miss = Submit(FunctionId(0), 0, Seconds(1));
  const RequestId open = Submit(FunctionId(1), 0, Seconds(1));
  (void)open;
  Complete(hit, Millis(500));
  Complete(miss, Seconds(2));
  EXPECT_NEAR(rec_.SloHitRate(true), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(rec_.SloHitRate(false), 0.5, 1e-12);
  // Per-function.
  EXPECT_NEAR(rec_.SloHitRate(FunctionId(0)), 0.5, 1e-12);
  EXPECT_NEAR(rec_.SloHitRate(FunctionId(1)), 0.0, 1e-12);
  EXPECT_EQ(rec_.SloHitRate(FunctionId(2)), 1.0);  // no requests
}

TEST_F(RecorderTest, MigAndGpuTimeAccounting) {
  // Slice 0 (4g on GPU 0) busy [0, 10 s); slice 1 (2g on GPU 0) busy
  // [5 s, 15 s); slice 3 (4g on GPU 1) busy [0, 4 s).
  for (SliceId s : {SliceId(0), SliceId(1), SliceId(3)}) {
    Bound(s, 0);
  }
  Busy(SliceId(0), 0);
  Busy(SliceId(3), 0);
  Idle(SliceId(3), Seconds(4));
  Busy(SliceId(1), Seconds(5));
  Idle(SliceId(0), Seconds(10));
  Idle(SliceId(1), Seconds(15));
  Released(SliceId(3), Seconds(16));
  rec_.Close(Seconds(20));

  // MIG time = 10 + 10 + 4 = 24 s of busy slice time.
  EXPECT_EQ(rec_.MigTime(), Seconds(24));
  // GPU 0 has >=1 busy slice over [0, 15); GPU 1 over [0, 4): 19 s.
  EXPECT_EQ(rec_.GpuTime(), Seconds(19));
  // Occupied: slices 0/1 bound to close (20+20), slice 3 for 16 s.
  EXPECT_EQ(BoundTime(rec_), Seconds(56));
}

TEST_F(RecorderTest, BusyGpcSignalTracksWeights) {
  Bound(SliceId(0), 0);  // 4g
  Bound(SliceId(1), 0);  // 2g
  Busy(SliceId(0), 0);
  Busy(SliceId(1), Seconds(5));
  Idle(SliceId(0), Seconds(10));
  Idle(SliceId(1), Seconds(10));
  rec_.Close(Seconds(10));
  // [0,5): 4 GPCs busy; [5,10): 6 -> mean 5.
  EXPECT_NEAR(rec_.busy_gpcs().MeanOver(0, Seconds(10)), 5.0, 1e-9);
}

TEST_F(RecorderTest, PerGpuOccupancyWeightsByGpcs) {
  // Bind 4g on GPU 0 the whole 10 s, busy half of it.
  Bound(SliceId(0), 0);
  Busy(SliceId(0), 0);
  Idle(SliceId(0), Seconds(5));
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
  Bound(SliceId(0), Millis(250));  // 4g on GPU 0
  Bound(SliceId(4), Millis(700));  // 2g on GPU 1
  Busy(SliceId(0), Seconds(1));
  Bound(SliceId(2), Seconds(1));  // 1g on GPU 0
  Released(SliceId(2), Seconds(2));
  Idle(SliceId(0), Millis(2300));
  Busy(SliceId(4), Seconds(3));
  Released(SliceId(0), Millis(3100));
  const std::vector<SliceId> fresh = RepartitionGpu0(Seconds(4));
  Bound(fresh[0], Seconds(4));
  Busy(fresh[0], Millis(4500));
  Idle(fresh[0], Millis(6900));
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
  for (int s = 0; s < 3; ++s) Bound(SliceId(s), 0);
  for (int s = 0; s < 3; ++s) Released(SliceId(s), Seconds(5));
  const std::vector<SliceId> fresh = RepartitionGpu0(Seconds(5));
  for (SliceId s : fresh) Bound(s, Seconds(5));
  rec_.Close(Seconds(10));
  const auto occ = rec_.PerGpuOccupancy();
  ASSERT_EQ(occ.size(), 2u);
  EXPECT_EQ(occ[0].occupied, 65.0 / 70.0);
  EXPECT_EQ(occ[0].active, 0.0);
  EXPECT_EQ(occ[1].occupied, 0.0);
}

TEST_F(RecorderTest, InvariantViolationsThrow) {
  EXPECT_THROW(Busy(SliceId(0), 0), FfsError);  // busy unbound
  Bound(SliceId(0), 0);
  EXPECT_THROW(Bound(SliceId(0), 1), FfsError);  // double bind
  Busy(SliceId(0), 1);
  EXPECT_THROW(Busy(SliceId(0), 2), FfsError);   // double busy
  EXPECT_THROW(Released(SliceId(0), 2), FfsError);  // busy release
  Idle(SliceId(0), 3);
  EXPECT_THROW(Idle(SliceId(0), 4), FfsError);   // double idle
}

TEST_F(RecorderTest, CloseIsTerminalAndIdempotencyGuarded) {
  rec_.Close(Seconds(1));
  EXPECT_THROW(rec_.Close(Seconds(2)), FfsError);
}

TEST_F(RecorderTest, ThroughputVariants) {
  for (int i = 0; i < 10; ++i) {
    const RequestId r = Submit(FunctionId(0), 0, Seconds(100));
    Complete(r, Seconds(i + 1));
  }
  rec_.Close(Seconds(20));
  EXPECT_NEAR(rec_.WindowedThroughput(Seconds(5)), 1.0, 1e-12);
}

TEST_F(RecorderTest, GoodputExcludesTimedOutCompletions) {
  const RequestId a = Submit(FunctionId(0), 0, Seconds(1));
  const RequestId b = Submit(FunctionId(0), 0, Seconds(1));
  bus_.Publish(sim::RequestTimedOut{b, FunctionId(0),
                                    /*mid_execution=*/true, Millis(400)});
  Complete(a, Millis(500));
  Complete(b, Millis(600));
  rec_.Close(Seconds(1));
  EXPECT_DOUBLE_EQ(rec_.WindowedThroughput(Seconds(1)), 2.0);
  EXPECT_DOUBLE_EQ(rec_.WindowedGoodput(Seconds(1)), 1.0);
}

TEST_F(RecorderTest, FairnessAndWorstTenantTail) {
  EXPECT_EQ(rec_.JainFairnessIndex(), 1.0);  // no traffic
  EXPECT_EQ(rec_.WorstFunctionP99(), 0.0);
  const RequestId hit = Submit(FunctionId(0), 0, Seconds(1));
  const RequestId miss = Submit(FunctionId(0), 0, Seconds(1));
  const RequestId other = Submit(FunctionId(2), 0, Seconds(1));
  Complete(hit, Millis(500));
  Complete(miss, Seconds(2));
  Complete(other, Millis(100));
  // Hit rates 0.5 and 1.0; function 1 saw no traffic: 1.5² / (2 · 1.25).
  EXPECT_DOUBLE_EQ(rec_.JainFairnessIndex(), 0.9);
  EXPECT_EQ(rec_.WorstFunctionP99(), Percentile({0.5, 2.0}, 0.99));
}

TEST_F(RecorderTest, BreakdownAveragesCompletedOnly) {
  const RequestId a = Submit(FunctionId(0), 0, Seconds(1));
  Accrue(a, sim::RequestPhase::kQueue, Millis(100));
  Accrue(a, sim::RequestPhase::kExec, Millis(200));
  Complete(a, Millis(300));
  const RequestId b = Submit(FunctionId(0), 0, Seconds(1));
  Accrue(b, sim::RequestPhase::kQueue, Millis(300));
  Accrue(b, sim::RequestPhase::kExec, Millis(400));
  Accrue(b, sim::RequestPhase::kTransfer, Millis(50));
  Complete(b, Millis(750));
  const RequestId open = Submit(FunctionId(0), 0, Seconds(1));
  Accrue(open, sim::RequestPhase::kQueue, Seconds(10));  // must not count

  auto bd = rec_.MeanBreakdown();
  EXPECT_NEAR(bd.queue, ToMillis(Millis(200)) * 1000, 1e-6);
  EXPECT_NEAR(bd.exec, 300e3, 1e-6);
  EXPECT_NEAR(bd.transfer, 25e3, 1e-6);
}

TEST_F(RecorderTest, LatenciesFilterByFunction) {
  EXPECT_EQ(rec_.LatencyPercentile(0.95), 0.0);  // no completions yet
  const RequestId a = Submit(FunctionId(0), 0, Seconds(1));
  Complete(a, Millis(100));
  const RequestId b = Submit(FunctionId(1), 0, Seconds(1));
  Complete(b, Millis(200));
  EXPECT_EQ(rec_.LatenciesSeconds().size(), 2u);
  auto only0 = rec_.LatenciesSeconds(FunctionId(0));
  ASSERT_EQ(only0.size(), 1u);
  EXPECT_NEAR(only0[0], 0.1, 1e-9);
  EXPECT_NEAR(rec_.LatencyPercentile(0.5), 0.15, 1e-9);  // both functions
}

TEST_F(RecorderTest, PerSliceTotals) {
  Bound(SliceId(2), 0);  // 1g on GPU 0
  Busy(SliceId(2), 0);
  Idle(SliceId(2), Seconds(3));
  Released(SliceId(2), Seconds(5));
  rec_.Close(Seconds(10));
  auto totals = rec_.PerSliceTotals();
  ASSERT_EQ(totals.size(), 6u);
  EXPECT_EQ(totals[2].busy, Seconds(3));
  EXPECT_EQ(totals[2].bound, Seconds(5));
  EXPECT_EQ(totals[2].gpcs, 1);
  EXPECT_EQ(totals[0].busy, 0);
}

TEST_F(RecorderTest, CloseSettlesOpenIntervals) {
  Bound(SliceId(0), 0);
  Busy(SliceId(0), Seconds(2));
  rec_.Close(Seconds(10));
  EXPECT_EQ(rec_.MigTime(), Seconds(8));
  EXPECT_EQ(BoundTime(rec_), Seconds(10));
  EXPECT_EQ(rec_.GpuTime(), Seconds(8));
}

}  // namespace
}  // namespace fluidfaas::metrics
