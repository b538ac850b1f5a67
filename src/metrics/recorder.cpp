#include "metrics/recorder.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "gpu/mig_profile.h"
#include "sim/event_bus.h"
#include "sim/events.h"

namespace fluidfaas::metrics {

Recorder::Recorder(const gpu::Cluster& cluster) : cluster_(&cluster) {
  per_gpu_.resize(static_cast<std::size_t>(cluster.num_gpus()));
  slices_.reserve(cluster.num_slices());
  for (SliceId sid : cluster.AllSlices()) {
    const gpu::MigSlice& s = cluster.slice(sid);
    SliceInfo info;
    info.gpu = s.gpu;
    info.gpcs = s.gpcs();
    slices_.push_back(info);
  }
  total_gpcs_ = cluster.TotalGpcs();
}

void Recorder::SubscribeTo(sim::EventBus& bus) {
  if (bus_ == &bus) return;
  FFS_CHECK_MSG(bus_ == nullptr, "Recorder already subscribed to a bus");
  bus_ = &bus;
  bus.Subscribe<sim::RequestSubmitted>([this](const sim::RequestSubmitted& e) {
    const RequestId rid = NewRequest(e.fn, e.at, e.deadline);
    FFS_CHECK_MSG(rid == e.rid,
                  "recorder request ids out of sync with the platform");
  });
  bus.Subscribe<sim::RequestPhaseAccrued>(
      [this](const sim::RequestPhaseAccrued& e) {
        RequestRecord& r = record(e.rid);
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
    Complete(e.rid, e.at);
  });
  bus.Subscribe<sim::SliceBound>(
      [this](const sim::SliceBound& e) { SliceBound(e.slice, e.at); });
  bus.Subscribe<sim::SliceReleased>(
      [this](const sim::SliceReleased& e) { SliceReleased(e.slice, e.at); });
  bus.Subscribe<sim::SliceBusyBegin>(
      [this](const sim::SliceBusyBegin& e) { SliceBusy(e.slice, e.at); });
  bus.Subscribe<sim::SliceBusyEnd>(
      [this](const sim::SliceBusyEnd& e) { SliceIdle(e.slice, e.at); });
  bus.Subscribe<sim::PartitionReconfigured>(
      [this](const sim::PartitionReconfigured& e) {
        ++reconfigurations_;
        blackout_total_ += e.blackout;
        SyncSlices(*cluster_);
      });
  bus.Subscribe<sim::SchedulerTransition>(
      [this](const sim::SchedulerTransition& e) {
        ++transitions_by_kind_[static_cast<std::size_t>(e.kind)];
      });
  bus.Subscribe<sim::RequestTimedOut>([this](const sim::RequestTimedOut& e) {
    RequestRecord& r = record(e.rid);
    r.timed_out = true;
    ++timeouts_;
    // Mid-queue expiry cancels the request outright; it never completes.
    if (!e.mid_execution && !r.aborted) {
      r.aborted = true;
      ++aborted_;
    }
  });
  bus.Subscribe<sim::RequestRetried>([this](const sim::RequestRetried& e) {
    ++record(e.rid).retries;
    ++retries_total_;
  });
  bus.Subscribe<sim::RequestAbandoned>(
      [this](const sim::RequestAbandoned& e) {
        ++abandoned_;
        RequestRecord& r = record(e.rid);
        if (!r.aborted) {
          r.aborted = true;
          ++aborted_;
        }
      });
  bus.Subscribe<sim::RequestRejected>([this](const sim::RequestRejected& e) {
    RequestRecord& r = record(e.rid);
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

RequestId Recorder::NewRequest(FunctionId fn, SimTime arrival,
                               SimTime deadline) {
  RequestRecord r;
  r.id = CheckedId<RequestId>(records_.size());
  r.fn = fn;
  r.arrival = arrival;
  r.deadline = deadline;
  records_.push_back(r);
  return r.id;
}

RequestRecord& Recorder::record(RequestId id) {
  FFS_CHECK(id.valid() && static_cast<std::size_t>(id.value) < records_.size());
  return records_[static_cast<std::size_t>(id.value)];
}

const RequestRecord& Recorder::record(RequestId id) const {
  return const_cast<Recorder*>(this)->record(id);
}

void Recorder::Complete(RequestId id, SimTime now) {
  RequestRecord& r = record(id);
  FFS_CHECK_MSG(!r.done(), "request completed twice");
  r.completion = now;
  ++completed_;
}

void Recorder::SliceBound(SliceId s, SimTime now) {
  SliceInfo& info = slices_[static_cast<std::size_t>(s.value)];
  FFS_CHECK(!info.bound);
  info.bound = true;
  info.bound_since = now;
  bound_gpc_count_ += info.gpcs;
  bound_gpcs_.Record(now, bound_gpc_count_);
}

void Recorder::SliceReleased(SliceId s, SimTime now) {
  SliceInfo& info = slices_[static_cast<std::size_t>(s.value)];
  FFS_CHECK(info.bound);
  FFS_CHECK_MSG(!info.busy, "releasing a busy slice");
  info.bound = false;
  info.bound_total += now - info.bound_since;
  bound_gpc_count_ -= info.gpcs;
  bound_gpcs_.Record(now, bound_gpc_count_);
}

void Recorder::SliceBusy(SliceId s, SimTime now) {
  SliceInfo& info = slices_[static_cast<std::size_t>(s.value)];
  FFS_CHECK_MSG(info.bound, "busy on an unbound slice");
  FFS_CHECK(!info.busy);
  info.busy = true;
  info.busy_since = now;
  GpuInfo& g = per_gpu_[static_cast<std::size_t>(info.gpu.value)];
  if (g.busy_slices == 0) g.busy_since = now;
  g.busy_slices += 1;
  busy_gpc_count_ += info.gpcs;
  busy_gpcs_.Record(now, busy_gpc_count_);
}

void Recorder::SliceIdle(SliceId s, SimTime now) {
  SliceInfo& info = slices_[static_cast<std::size_t>(s.value)];
  FFS_CHECK(info.busy);
  info.busy = false;
  info.busy_total += now - info.busy_since;
  GpuInfo& g = per_gpu_[static_cast<std::size_t>(info.gpu.value)];
  g.busy_slices -= 1;
  if (g.busy_slices == 0) g.busy_total += now - g.busy_since;
  busy_gpc_count_ -= info.gpcs;
  busy_gpcs_.Record(now, busy_gpc_count_);
}

void Recorder::SyncSlices(const gpu::Cluster& cluster) {
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

double Recorder::JainFairnessIndex() const {
  // Per-function SLO hit rates over the functions that saw traffic.
  std::unordered_map<std::int32_t, std::pair<std::size_t, std::size_t>> per;
  for (const RequestRecord& r : records_) {
    auto& [denom, hits] = per[r.fn.value];
    ++denom;
    if (r.SloHit()) ++hits;
  }
  if (per.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [fnv, counts] : per) {
    const double x = static_cast<double>(counts.second) /
                     static_cast<double>(counts.first);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  const auto n = static_cast<double>(per.size());
  return (sum * sum) / (n * sum_sq);
}

double Recorder::WorstFunctionP99(FunctionId* which) const {
  std::unordered_map<std::int32_t, std::vector<double>> lats;
  for (const RequestRecord& r : records_) {
    if (r.done()) lats[r.fn.value].push_back(ToSeconds(r.Latency()));
  }
  double worst = 0.0;
  std::int32_t worst_fn = -1;
  for (auto& [fnv, v] : lats) {
    const double p99 = Percentile(v, 0.99);
    // Strict > with the lowest-id tie-break keeps the answer independent
    // of unordered_map iteration order.
    if (p99 > worst || (p99 == worst && worst_fn >= 0 && fnv < worst_fn)) {
      worst = p99;
      worst_fn = fnv;
    }
  }
  if (which != nullptr) *which = FunctionId(worst_fn);
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

double Recorder::SloHitRate(FunctionId fn, bool count_outstanding) const {
  std::size_t hits = 0;
  std::size_t denom = 0;
  for (const RequestRecord& r : records_) {
    if (r.fn != fn) continue;
    if (!r.done() && !count_outstanding) continue;
    ++denom;
    if (r.SloHit()) ++hits;
  }
  return denom ? static_cast<double>(hits) / static_cast<double>(denom) : 1.0;
}

double Recorder::WindowedThroughput(SimTime window) const {
  if (window <= 0) return 0.0;
  std::size_t n = 0;
  for (const RequestRecord& r : records_) {
    if (r.done() && r.completion <= window) ++n;
  }
  return static_cast<double>(n) / ToSeconds(window);
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
  if (window <= 0) return 0.0;
  std::size_t n = 0;
  for (const RequestRecord& r : records_) {
    if (r.Goodput() && r.completion <= window) ++n;
  }
  return static_cast<double>(n) / ToSeconds(window);
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
