// Metrics collection for simulation runs.
//
// The recorder is the single sink for (i) per-request lifecycle records —
// queueing, loading, execution, transfer, completion — (ii) cluster
// occupancy signals — per-slice bound/busy intervals, from which GPU time,
// MIG time, utilization timelines and the keep-alive occupancy study
// (Figs. 3, 5, 16; Table 6) are derived — and (iii) what the schedulers
// did: placement commits and aborts, pipelines launched, Fig. 8
// transitions and GPU repartitions. No scheduler keeps a count a report
// reads.
//
// Terminology (paper §6):
//   bound   — a slice is allocated to an instance (occupied), regardless of
//             whether it is computing. Drives the "occupied" series of
//             Fig. 5 and the fragmentation analysis.
//   busy    — a slice is actively executing a stage. Drives "actively
//             used", MIG time (Σ busy time over slices) and GPU time
//             (Σ time each GPU has ≥1 busy slice).
#pragma once

#include <array>
#include <deque>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "gpu/cluster.h"
#include "sim/events.h"

namespace fluidfaas::sim {
class EventBus;
}

namespace fluidfaas::metrics {

struct RequestRecord {
  RequestId id;
  FunctionId fn;
  SimTime arrival = 0;
  SimTime deadline = 0;
  SimTime completion = -1;  // -1 while outstanding

  SimDuration queue_time = 0;     // waiting for dispatch + stage queues
  SimDuration load_time = 0;      // cold/warm model loading on its path
  SimDuration exec_time = 0;      // on-slice compute
  SimDuration transfer_time = 0;  // inter-stage hops

  int retries = 0;        // instance failures this request survived
  bool timed_out = false;  // enforcement timeout fired (either flavour)
  bool aborted = false;    // will never complete (timeout/abandonment)
  bool rejected = false;   // refused by admission control
  sim::RejectCause reject_cause = sim::RejectCause::kNone;

  bool done() const { return completion >= 0; }
  SimDuration Latency() const { return done() ? completion - arrival : -1; }
  bool SloHit() const { return done() && completion <= deadline; }
  /// Completed within SLO and not disqualified by a timeout — the unit of
  /// the availability story under faults.
  bool Goodput() const { return SloHit() && !timed_out; }
};

class Recorder {
 public:
  explicit Recorder(const gpu::Cluster& cluster);

  /// Feed the recorder from a simulation's EventBus, its only input:
  /// request lifecycle and phase attribution, slice bound/busy intervals,
  /// placement commits, scheduler transitions and partition
  /// reconfigurations (after which slices the cluster minted are tracked)
  /// all arrive as sim/events.h publications. Nothing in the platform layer
  /// holds a Recorder reference, and tests drive one by publishing.
  /// Idempotent for the same bus; subscribing one recorder to two buses is
  /// an error.
  void SubscribeTo(sim::EventBus& bus);

  // --- request lifecycle -------------------------------------------------
  const RequestRecord& record(RequestId id) const;

  std::size_t total_requests() const { return records_.size(); }
  std::size_t completed_requests() const { return completed_; }
  /// Requests that reached a terminal state: completed plus aborted
  /// (timed out mid-queue or abandoned by the retry policy). The harness
  /// drains on this — identical to completed_requests() without faults.
  std::size_t finished_requests() const { return completed_ + aborted_; }
  /// Every record, in id order. A deque: appending one never moves or
  /// copies the others, so the store needs no size hint.
  const std::deque<RequestRecord>& records() const { return records_; }

  // --- availability under faults ------------------------------------------
  std::size_t timeouts() const { return timeouts_; }
  std::size_t retries_total() const { return retries_total_; }
  std::size_t abandoned_requests() const { return abandoned_; }
  std::size_t aborted_requests() const { return aborted_; }
  std::size_t instances_failed() const { return instances_failed_; }
  std::size_t slices_failed() const { return slices_failed_; }
  std::size_t slices_repaired() const { return slices_repaired_; }
  /// Completed requests that survived at least one instance failure.
  std::size_t RecoveredRequests() const;
  /// Goodput (SLO-hit, non-timed-out completions) per second of [0, window].
  double WindowedGoodput(SimTime window) const;

  // --- QoS: admission & queueing (DESIGN.md §9) ----------------------------
  std::size_t rejected_requests() const { return rejected_; }
  std::size_t rejected_by(sim::RejectCause cause) const {
    return rejects_by_cause_[static_cast<std::size_t>(cause)];
  }
  /// Time-averaged pending depth over [0, end]; valid after Close().
  double MeanQueueDepth() const;
  /// Jain fairness index over per-function SLO hit rates, functions with
  /// >= 1 request only: (Σx)² / (n·Σx²) ∈ (0, 1], 1 = perfectly even.
  /// 1.0 when no function saw traffic (or all hit rates are zero).
  double JainFairnessIndex() const;
  /// Largest per-function p99 latency (seconds) over functions with >= 1
  /// completion — the starved-tenant tail the fair discipline targets.
  /// 0 with no completions.
  double WorstFunctionP99() const;

  // --- placement transactions (DESIGN.md §8) -------------------------------
  std::size_t plans_committed() const { return plans_committed_; }
  std::size_t plans_aborted() const { return plans_aborted_; }
  std::size_t plans_aborted_by(sim::PlanAbortCause cause) const {
    return aborts_by_cause_[static_cast<std::size_t>(cause)];
  }
  std::size_t spawns_committed() const { return spawns_committed_; }
  /// The committed spawns with more than one stage: pipelines launched.
  std::size_t pipelines_committed() const { return pipelines_committed_; }
  /// Aborted fraction of all commit attempts — the reservation-conflict
  /// rate schedulers pay for optimistic planning. 0 with no attempts.
  double PlanConflictRate() const;

  // --- scheduler behaviour (paper §5.2-§5.3) -------------------------------
  /// Fig. 8 transitions of `kind` (sim::SchedulerTransition).
  std::size_t transitions(sim::TransitionKind kind) const {
    return transitions_by_kind_[static_cast<std::size_t>(kind)];
  }
  /// Runtime GPU repartitions (sim::PartitionReconfigured) and the sum of
  /// their blackouts.
  std::size_t reconfigurations() const { return reconfigurations_; }
  SimDuration reconfiguration_blackout() const { return blackout_total_; }

  /// Finalize all signals at `end`; call once after the run.
  void Close(SimTime end);

  // --- derived metrics (valid after Close) --------------------------------
  /// Fraction of completed requests within their deadline; counts
  /// never-completed requests as misses when `count_outstanding`.
  double SloHitRate(bool count_outstanding = true) const;

  /// System throughput as the paper reports it: requests completed within
  /// the trace window, per second of that window.
  double WindowedThroughput(SimTime window) const;

  /// Σ over slices of busy time (µs) — "MIG time".
  SimDuration MigTime() const;
  /// Σ over GPUs of time with >= 1 busy slice — "GPU time".
  SimDuration GpuTime() const;

  /// Busy-GPC totals over time (for utilization = value / total GPCs).
  const TimeWeightedSignal& busy_gpcs() const { return busy_gpcs_; }
  const TimeWeightedSignal& bound_gpcs() const { return bound_gpcs_; }

  /// Per-GPU occupancy fractions over [0, end] (Fig. 5):
  /// {occupied fraction, active fraction} per GPU: Σ GPCs × bound (busy)
  /// time over the GPU's slices, retired ones included, per µs of the run
  /// and per GPC of a whole GPU (gpu::kGpcsPerGpu), so a repartition to
  /// fewer GPCs never reads above 1.
  struct GpuOccupancy {
    double occupied;
    double active;
  };
  std::vector<GpuOccupancy> PerGpuOccupancy() const;

  /// Completed-request latencies (seconds), optionally one function only.
  std::vector<double> LatenciesSeconds(FunctionId fn = FunctionId()) const;
  /// Quantile `q` of the completed-request latency (seconds); 0 with no
  /// completions.
  double LatencyPercentile(double q) const;

  /// Mean per-request breakdown over completed requests of `fn`
  /// (or all when invalid id), in µs: {queue, load, exec, transfer}.
  struct Breakdown {
    double queue, load, exec, transfer;
  };
  Breakdown MeanBreakdown(FunctionId fn = FunctionId()) const;

  /// Per-function SLO hit rate; never-completed requests count as misses.
  /// 1.0 for a function without requests.
  double SloHitRate(FunctionId fn) const;

  /// Per-slice busy/bound totals (µs), indexed by SliceId; valid after
  /// Close(). Used by the Fig. 3(b) slice-usage bench and diagnostics.
  struct SliceTotals {
    GpuId gpu;
    int gpcs;
    SimDuration busy;
    SimDuration bound;
  };
  std::vector<SliceTotals> PerSliceTotals() const;

  SimTime end_time() const { return end_; }
  int total_gpcs() const { return total_gpcs_; }

 private:
  struct SliceInfo {
    GpuId gpu;
    int gpcs;
    bool bound = false;
    bool busy = false;
    SimTime bound_since = 0;
    SimTime busy_since = 0;
    SimDuration bound_total = 0;
    SimDuration busy_total = 0;
  };
  struct GpuInfo {
    int busy_slices = 0;
    SimTime busy_since = 0;
    SimDuration busy_total = 0;  // time with >=1 busy slice
  };

  /// Requests and SLO hits of one function.
  struct SloTally {
    std::size_t requests = 0;
    std::size_t hits = 0;
  };
  /// Per-function tallies, indexed by the dense FunctionId.
  std::vector<SloTally> SloByFunction() const;

  RequestRecord& MutableRecord(RequestId id);
  /// Track slices a runtime repartition (gpu::Cluster::RepartitionGpu)
  /// minted: retired ids keep their accumulated totals, fresh ids start
  /// clean. The constructor registers the initial slices the same way.
  void SyncSlices();

  std::deque<RequestRecord> records_;  // indexed by RequestId
  std::size_t completed_ = 0;
  std::size_t timeouts_ = 0;
  std::size_t retries_total_ = 0;
  std::size_t abandoned_ = 0;
  std::size_t aborted_ = 0;
  std::size_t instances_failed_ = 0;
  std::size_t slices_failed_ = 0;
  std::size_t slices_repaired_ = 0;

  std::size_t plans_committed_ = 0;
  std::size_t plans_aborted_ = 0;
  std::size_t spawns_committed_ = 0;
  std::size_t pipelines_committed_ = 0;
  std::array<std::size_t, sim::kNumPlanAbortCauses> aborts_by_cause_{};

  std::array<std::size_t, sim::kNumTransitionKinds> transitions_by_kind_{};
  std::size_t reconfigurations_ = 0;
  SimDuration blackout_total_ = 0;

  std::size_t rejected_ = 0;
  std::array<std::size_t, sim::kNumRejectCauses> rejects_by_cause_{};
  TimeWeightedSignal queue_depth_;

  const gpu::Cluster* cluster_ = nullptr;
  sim::EventBus* bus_ = nullptr;

  std::vector<SliceInfo> slices_;
  std::vector<GpuInfo> per_gpu_;
  int total_gpcs_ = 0;

  int busy_gpc_count_ = 0;
  int bound_gpc_count_ = 0;
  TimeWeightedSignal busy_gpcs_;
  TimeWeightedSignal bound_gpcs_;

  SimTime end_ = -1;
  bool closed_ = false;
};

}  // namespace fluidfaas::metrics
