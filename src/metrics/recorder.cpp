#include "metrics/recorder.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "gpu/mig_profile.h"
#include "sim/event_bus.h"
#include "sim/events.h"

namespace fluidfaas::metrics {
namespace {

// Requests for which `counts` holds that completed within [0, window], per
// second of the window.
double WindowedRate(const std::deque<RequestRecord>& records, SimTime window,
                    bool (RequestRecord::*counts)() const) {
  if (window <= 0) return 0.0;
  std::size_t n = 0;
  for (const RequestRecord& r : records) {
    if ((r.*counts)() && r.completion <= window) ++n;
  }
  return static_cast<double>(n) / ToSeconds(window);
}

}  // namespace

Recorder::Recorder(const gpu::Cluster& cluster) : cluster_(&cluster) {
  per_gpu_.resize(static_cast<std::size_t>(cluster.num_gpus()));
  slices_.reserve(cluster.num_slices());
  SyncSlices();
}

void Recorder::SubscribeTo(sim::EventBus& bus) {
  if (bus_ == &bus) return;
  FFS_CHECK_MSG(bus_ == nullptr, "Recorder already subscribed to a bus");
  bus_ = &bus;
  bus.Subscribe<sim::RequestSubmitted>([this](const sim::RequestSubmitted& e) {
    FFS_CHECK_MSG(e.rid == CheckedId<RequestId>(records_.size()),
                  "recorder request ids out of sync with the platform");
    RequestRecord& r = records_.emplace_back();
    r.id = e.rid;
    r.fn = e.fn;
    r.arrival = e.at;
    r.deadline = e.deadline;
  });
  bus.Subscribe<sim::RequestPhaseAccrued>(
      [this](const sim::RequestPhaseAccrued& e) {
        RequestRecord& r = MutableRecord(e.rid);
        switch (e.phase) {
          case sim::RequestPhase::kQueue:
            r.queue_time += e.amount;
            break;
          case sim::RequestPhase::kLoad:
            r.load_time += e.amount;
            break;
          case sim::RequestPhase::kExec:
            r.exec_time += e.amount;
            break;
          case sim::RequestPhase::kTransfer:
            r.transfer_time += e.amount;
            break;
        }
      });
  bus.Subscribe<sim::RequestCompleted>([this](const sim::RequestCompleted& e) {
    RequestRecord& r = MutableRecord(e.rid);
    FFS_CHECK_MSG(!r.done(), "request completed twice");
    r.completion = e.at;
    ++completed_;
  });
  bus.Subscribe<sim::SliceBound>([this](const sim::SliceBound& e) {
    SliceInfo& info = slices_[static_cast<std::size_t>(e.slice.value)];
    FFS_CHECK(!info.bound);
    info.bound = true;
    info.bound_since = e.at;
    bound_gpc_count_ += info.gpcs;
    bound_gpcs_.Record(e.at, bound_gpc_count_);
  });
  bus.Subscribe<sim::SliceReleased>([this](const sim::SliceReleased& e) {
    SliceInfo& info = slices_[static_cast<std::size_t>(e.slice.value)];
    FFS_CHECK(info.bound);
    FFS_CHECK_MSG(!info.busy, "releasing a busy slice");
    info.bound = false;
    info.bound_total += e.at - info.bound_since;
    bound_gpc_count_ -= info.gpcs;
    bound_gpcs_.Record(e.at, bound_gpc_count_);
  });
  bus.Subscribe<sim::SliceBusyBegin>([this](const sim::SliceBusyBegin& e) {
    SliceInfo& info = slices_[static_cast<std::size_t>(e.slice.value)];
    FFS_CHECK_MSG(info.bound, "busy on an unbound slice");
    FFS_CHECK(!info.busy);
    info.busy = true;
    info.busy_since = e.at;
    GpuInfo& g = per_gpu_[static_cast<std::size_t>(info.gpu.value)];
    if (g.busy_slices == 0) g.busy_since = e.at;
    g.busy_slices += 1;
    busy_gpc_count_ += info.gpcs;
    busy_gpcs_.Record(e.at, busy_gpc_count_);
  });
  bus.Subscribe<sim::SliceBusyEnd>([this](const sim::SliceBusyEnd& e) {
    SliceInfo& info = slices_[static_cast<std::size_t>(e.slice.value)];
    FFS_CHECK(info.busy);
    info.busy = false;
    info.busy_total += e.at - info.busy_since;
    GpuInfo& g = per_gpu_[static_cast<std::size_t>(info.gpu.value)];
    g.busy_slices -= 1;
    if (g.busy_slices == 0) g.busy_total += e.at - g.busy_since;
    busy_gpc_count_ -= info.gpcs;
    busy_gpcs_.Record(e.at, busy_gpc_count_);
  });
  bus.Subscribe<sim::PartitionReconfigured>(
      [this](const sim::PartitionReconfigured& e) {
        ++reconfigurations_;
        blackout_total_ += e.blackout;
        SyncSlices();
      });
  bus.Subscribe<sim::SchedulerTransition>(
      [this](const sim::SchedulerTransition& e) {
        ++transitions_by_kind_[static_cast<std::size_t>(e.kind)];
      });
  bus.Subscribe<sim::RequestTimedOut>([this](const sim::RequestTimedOut& e) {
    RequestRecord& r = MutableRecord(e.rid);
    r.timed_out = true;
    ++timeouts_;
    // Mid-queue expiry cancels the request outright; it never completes.
    if (!e.mid_execution && !r.aborted) {
      r.aborted = true;
      ++aborted_;
    }
  });
  bus.Subscribe<sim::RequestRetried>([this](const sim::RequestRetried& e) {
    ++MutableRecord(e.rid).retries;
    ++retries_total_;
  });
  bus.Subscribe<sim::RequestAbandoned>(
      [this](const sim::RequestAbandoned& e) {
        ++abandoned_;
        RequestRecord& r = MutableRecord(e.rid);
        if (!r.aborted) {
          r.aborted = true;
          ++aborted_;
        }
      });
  bus.Subscribe<sim::RequestRejected>([this](const sim::RequestRejected& e) {
    RequestRecord& r = MutableRecord(e.rid);
    r.rejected = true;
    r.reject_cause = e.cause;
    ++rejected_;
    ++rejects_by_cause_[static_cast<std::size_t>(e.cause)];
    // A rejection is terminal: the request will never complete, so it
    // counts toward finished_requests() or the harness drain would spin.
    if (!r.aborted) {
      r.aborted = true;
      ++aborted_;
    }
  });
  bus.Subscribe<sim::PendingDepthChanged>(
      [this](const sim::PendingDepthChanged& e) {
        queue_depth_.Record(e.at, static_cast<double>(e.depth));
      });
  bus.Subscribe<sim::PlacementCommitted>(
      [this](const sim::PlacementCommitted& e) {
        ++plans_committed_;
        spawns_committed_ += static_cast<std::size_t>(e.spawns);
        pipelines_committed_ += static_cast<std::size_t>(e.pipelines);
      });
  bus.Subscribe<sim::PlacementAborted>([this](const sim::PlacementAborted& e) {
    ++plans_aborted_;
    ++aborts_by_cause_[static_cast<std::size_t>(e.cause)];
  });
  bus.Subscribe<sim::InstanceFailed>(
      [this](const sim::InstanceFailed&) { ++instances_failed_; });
  bus.Subscribe<sim::SliceFailed>(
      [this](const sim::SliceFailed&) { ++slices_failed_; });
  bus.Subscribe<sim::SliceRepaired>(
      [this](const sim::SliceRepaired&) { ++slices_repaired_; });
}

const RequestRecord& Recorder::record(RequestId id) const {
  FFS_CHECK(id.valid() && static_cast<std::size_t>(id.value) < records_.size());
  return records_[static_cast<std::size_t>(id.value)];
}

RequestRecord& Recorder::MutableRecord(RequestId id) {
  return const_cast<RequestRecord&>(std::as_const(*this).record(id));
}

void Recorder::SyncSlices() {
  const gpu::Cluster& cluster = *cluster_;
  for (SliceId sid : cluster.AllSlices()) {
    if (static_cast<std::size_t>(sid.value) < slices_.size()) continue;
    FFS_CHECK_MSG(static_cast<std::size_t>(sid.value) == slices_.size(),
                  "fresh slice ids must be appended densely");
    const gpu::MigSlice& s = cluster.slice(sid);
    SliceInfo info;
    info.gpu = s.gpu;
    info.gpcs = s.gpcs();
    slices_.push_back(info);
  }
  total_gpcs_ = cluster.TotalGpcs();
}

void Recorder::Close(SimTime end) {
  FFS_CHECK_MSG(!closed_, "Recorder closed twice");
  closed_ = true;
  end_ = end;
  for (SliceInfo& info : slices_) {
    if (info.busy) {
      info.busy_total += end - info.busy_since;
      info.busy = false;
    }
    if (info.bound) {
      info.bound_total += end - info.bound_since;
      info.bound = false;
    }
  }
  for (GpuInfo& g : per_gpu_) {
    if (g.busy_slices > 0) g.busy_total += end - g.busy_since;
  }
  busy_gpcs_.Close(end);
  bound_gpcs_.Close(end);
  queue_depth_.Close(end);
}

double Recorder::MeanQueueDepth() const {
  FFS_CHECK_MSG(closed_, "Close() the recorder first");
  return end_ > 0 ? queue_depth_.MeanOver(0, end_) : 0.0;
}

std::vector<Recorder::SloTally> Recorder::SloByFunction() const {
  std::vector<SloTally> per;
  for (const RequestRecord& r : records_) {
    const auto i = static_cast<std::size_t>(r.fn.value);
    if (i >= per.size()) per.resize(i + 1);
    ++per[i].requests;
    if (r.SloHit()) ++per[i].hits;
  }
  return per;
}

double Recorder::JainFairnessIndex() const {
  // The sums run in function id order; functions without traffic are
  // skipped.
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t n = 0;
  for (const SloTally& t : SloByFunction()) {
    if (t.requests == 0) continue;
    const double x =
        static_cast<double>(t.hits) / static_cast<double>(t.requests);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

double Recorder::WorstFunctionP99() const {
  double worst = 0.0;
  // One past the highest function id that saw a request.
  const std::size_t num_fns = SloByFunction().size();
  for (std::size_t i = 0; i < num_fns; ++i) {
    std::vector<double> lats =
        LatenciesSeconds(FunctionId(static_cast<std::int32_t>(i)));
    if (!lats.empty()) {
      worst = std::max(worst, Percentile(std::move(lats), 0.99));
    }
  }
  return worst;
}

double Recorder::SloHitRate(bool count_outstanding) const {
  std::size_t hits = 0;
  std::size_t denom = 0;
  for (const RequestRecord& r : records_) {
    if (!r.done() && !count_outstanding) continue;
    ++denom;
    if (r.SloHit()) ++hits;
  }
  return denom ? static_cast<double>(hits) / static_cast<double>(denom) : 1.0;
}

double Recorder::SloHitRate(FunctionId fn) const {
  const std::vector<SloTally> per = SloByFunction();
  const auto i = static_cast<std::size_t>(fn.value);
  if (i >= per.size() || per[i].requests == 0) return 1.0;
  return static_cast<double>(per[i].hits) /
         static_cast<double>(per[i].requests);
}

double Recorder::WindowedThroughput(SimTime window) const {
  return WindowedRate(records_, window, &RequestRecord::done);
}

std::size_t Recorder::RecoveredRequests() const {
  std::size_t n = 0;
  for (const RequestRecord& r : records_) {
    if (r.done() && r.retries > 0) ++n;
  }
  return n;
}

double Recorder::PlanConflictRate() const {
  const std::size_t attempts = plans_committed_ + plans_aborted_;
  return attempts ? static_cast<double>(plans_aborted_) /
                        static_cast<double>(attempts)
                  : 0.0;
}

double Recorder::WindowedGoodput(SimTime window) const {
  return WindowedRate(records_, window, &RequestRecord::Goodput);
}

SimDuration Recorder::MigTime() const {
  SimDuration t = 0;
  for (const SliceInfo& s : slices_) t += s.busy_total;
  return t;
}

SimDuration Recorder::GpuTime() const {
  SimDuration t = 0;
  for (const GpuInfo& g : per_gpu_) t += g.busy_total;
  return t;
}

std::vector<Recorder::GpuOccupancy> Recorder::PerGpuOccupancy() const {
  FFS_CHECK_MSG(closed_, "Close() the recorder first");
  // GPC-weighted bound and busy time per GPU (µs), retired slices included.
  std::vector<SimDuration> bound(per_gpu_.size(), 0);
  std::vector<SimDuration> busy(per_gpu_.size(), 0);
  for (const SliceInfo& s : slices_) {
    const auto g = static_cast<std::size_t>(s.gpu.value);
    bound[g] += s.gpcs * s.bound_total;
    busy[g] += s.gpcs * s.busy_total;
  }
  // Mean GPCs over [0, end_], then the fraction of a whole GPU's GPCs.
  const auto fraction = [this](SimDuration gpc_time) {
    if (end_ <= 0) return 0.0;
    return static_cast<double>(gpc_time) / static_cast<double>(end_) /
           gpu::kGpcsPerGpu;
  };
  std::vector<GpuOccupancy> out;
  for (std::size_t g = 0; g < per_gpu_.size(); ++g) {
    out.push_back(GpuOccupancy{fraction(bound[g]), fraction(busy[g])});
  }
  return out;
}

std::vector<Recorder::SliceTotals> Recorder::PerSliceTotals() const {
  std::vector<SliceTotals> out;
  out.reserve(slices_.size());
  for (const SliceInfo& s : slices_) {
    out.push_back(SliceTotals{s.gpu, s.gpcs, s.busy_total, s.bound_total});
  }
  return out;
}

std::vector<double> Recorder::LatenciesSeconds(FunctionId fn) const {
  std::vector<double> out;
  for (const RequestRecord& r : records_) {
    if (!r.done()) continue;
    if (fn.valid() && r.fn != fn) continue;
    out.push_back(ToSeconds(r.Latency()));
  }
  return out;
}

double Recorder::LatencyPercentile(double q) const {
  std::vector<double> lats = LatenciesSeconds();
  return lats.empty() ? 0.0 : Percentile(std::move(lats), q);
}

Recorder::Breakdown Recorder::MeanBreakdown(FunctionId fn) const {
  Breakdown b{0, 0, 0, 0};
  std::size_t n = 0;
  for (const RequestRecord& r : records_) {
    if (!r.done()) continue;
    if (fn.valid() && r.fn != fn) continue;
    ++n;
    b.queue += static_cast<double>(r.queue_time);
    b.load += static_cast<double>(r.load_time);
    b.exec += static_cast<double>(r.exec_time);
    b.transfer += static_cast<double>(r.transfer_time);
  }
  if (n) {
    b.queue /= static_cast<double>(n);
    b.load /= static_cast<double>(n);
    b.exec /= static_cast<double>(n);
    b.transfer /= static_cast<double>(n);
  }
  return b;
}

}  // namespace fluidfaas::metrics
