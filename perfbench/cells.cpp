#include "cells.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "gpu/cluster.h"
#include "harness/run_context.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "qos/admission.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "trace/workload.h"

namespace perfbench {

namespace ffs = ::fluidfaas;
namespace gpu = ::fluidfaas::gpu;
namespace harness = ::fluidfaas::harness;
namespace metrics = ::fluidfaas::metrics;
namespace platform = ::fluidfaas::platform;
namespace qos = ::fluidfaas::qos;
namespace sim = ::fluidfaas::sim;
namespace trace = ::fluidfaas::trace;

namespace {

// On a shared 4-core x86-64 VM, the speed available to one process drifted
// by 20-40% over minutes, so runs of identical work differed by 17-30% in
// host time. A fixed kernel of heap and hash-map work, like the
// simulator's, is timed before and after each cell and, in untraced
// cells, about every 100 ms while it runs. The cell's host times are
// multiplied by kCalibrationS / (mean kernel time). The kernel is
// benchmark code, so a change to the simulator never moves it.
constexpr double kCalibrationS = 0.005;  // kernel time on that VM, quiet
constexpr double kSampleEveryS = 0.1;
volatile std::uint64_t calibration_sink = 0;  // keeps the kernel's result

double CalibrationKernel() {
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<std::uint64_t> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  std::uint64_t acc = 0;
  for (int i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x % 1000003);
    map[x % 65536] += x;
    if (heap.size() > 4096) {
      acc += heap.top();
      heap.pop();
    }
    acc += map.count((x >> 5) % 65536);
  }
  calibration_sink = acc;
  return SecondsSince(t0);
}

/// Samples the machine's speed around, and optionally during, one cell.
class SpeedProbe {
 public:
  SpeedProbe() { Sample(); }
  // The bus subscription captures `this`.
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Also sample every kSampleEveryS of host time while `bus` dispatches.
  /// A bus observer never perturbs the simulation; the digest checks
  /// against the traced cells confirm it.
  void SampleDuring(sim::EventBus& bus) {
    sub_ = bus.SubscribeScoped<sim::RequestPhaseAccrued>(
        [this](const sim::RequestPhaseAccrued&) {
          if (++events_ % 64 == 0 && SecondsSince(last_) >= kSampleEveryS) {
            in_run_s_ += Sample();
          }
        });
  }

  /// Host time spent in samples taken during the run.
  double in_run_s() const { return in_run_s_; }

  /// Sample once more and return the speed factor for the cell.
  double Finish() {
    sub_.Release();
    Sample();
    const double mean =
        std::accumulate(samples_.begin(), samples_.end(), 0.0) /
        static_cast<double>(samples_.size());
    return kCalibrationS / mean;
  }

 private:
  double Sample() {
    const double t = CalibrationKernel();
    samples_.push_back(t);
    last_ = Clock::now();
    return t;
  }

  std::vector<double> samples_;
  Clock::time_point last_;
  std::uint64_t events_ = 0;
  double in_run_s_ = 0.0;
  sim::EventBus::Subscription sub_;
};

class Fnv1a {
 public:
  void Add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

RecordCheck CheckRecords(const metrics::Recorder& rec,
                         std::size_t invocations) {
  RecordCheck c;
  Fnv1a h;
  std::ostringstream err;
  const auto& records = rec.records();
  c.records = records.size();
  std::size_t inconsistent = 0;
  if (records.size() != invocations) {
    err << "records " << records.size() << " != invocations " << invocations
        << "; ";
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const metrics::RequestRecord& r = records[i];
    h.Add(r.id.value);
    h.Add(r.fn.value);
    h.Add(r.arrival);
    h.Add(r.completion);
    h.Add(r.deadline);
    h.Add(r.queue_time);
    h.Add(r.load_time);
    h.Add(r.exec_time);
    h.Add(r.transfer_time);
    h.Add(r.retries);
    h.Add(static_cast<std::int64_t>(r.reject_cause));
    h.Add((r.timed_out ? 1 : 0) | (r.aborted ? 2 : 0) | (r.rejected ? 4 : 0));

    const bool rejected_cause = r.reject_cause != sim::RejectCause::kNone;
    const int states = (r.done() ? 1 : 0) + (r.rejected ? 1 : 0) +
                       (!r.done() && r.aborted && !r.rejected ? 1 : 0) +
                       (!r.done() && !r.aborted && !r.rejected ? 1 : 0);
    if (r.id.value != static_cast<std::int32_t>(i) || states != 1 ||
        (r.done() && (r.aborted || r.completion < r.arrival)) ||
        (r.rejected && (!r.aborted || !rejected_cause)) ||
        (!r.rejected && rejected_cause)) {
      if (inconsistent == 0) {
        err << "request " << i << " is in an inconsistent state; ";
      }
      ++inconsistent;
    }
    if (r.SloHit()) ++c.slo_hits;
    if (r.done()) {
      ++c.completed;
    } else if (r.rejected) {
      ++c.rejected;
    } else if (r.aborted) {
      ++(r.timed_out ? c.timed_out : c.abandoned);
    } else {
      ++c.unfinished;
    }
  }
  if (c.completed != rec.completed_requests() ||
      c.rejected != rec.rejected_requests() ||
      c.completed + c.rejected + c.timed_out + c.abandoned !=
          rec.finished_requests()) {
    err << "state counts disagree with the recorder's; ";
  }
  const double rate = rec.SloHitRate(true);
  if (c.records == 0 || c.slo_hits == 0 ||
      rate != static_cast<double>(c.slo_hits) /
                  static_cast<double>(c.records)) {
    err << "slo hit rate " << rate << " disagrees with " << c.slo_hits
        << " hits in " << c.records << " records; ";
  }
  c.digest = h.value();
  c.error = err.str();
  return c;
}

UntracedCell RunUntraced(const harness::ExperimentConfig& config) {
  UntracedCell cell;
  const Clock::time_point t0 = Clock::now();
  harness::RunContext ctx(config);
  cell.setup_s = SecondsSince(t0);
  SpeedProbe probe;  // declared after ctx: unsubscribes before the bus dies
  probe.SampleDuring(ctx.sim().bus());
  const Clock::time_point t1 = Clock::now();
  harness::ExperimentResult res = ctx.Run();
  cell.wall_s = SecondsSince(t1) - probe.in_run_s();
  const double speed = probe.Finish();
  cell.setup_s *= speed;
  cell.wall_s *= speed;
  cell.events = ctx.sim().events_executed();
  cell.publishes = ctx.sim().bus().published();
  cell.check = CheckRecords(*res.recorder, ctx.workload().trace.size());
  return cell;
}

namespace {

class TimedRouting final : public platform::RoutingPolicy {
 public:
  TimedRouting(std::unique_ptr<platform::RoutingPolicy> inner, Tracer& tracer,
               LayerCounts& counts)
      : inner_(std::move(inner)), tracer_(tracer), counts_(counts) {}
  void Attach(platform::PlatformCore& core) override { inner_->Attach(core); }
  bool Route(platform::PlatformCore& core, ffs::RequestId rid,
             ffs::FunctionId fn) override {
    ++counts_.route_calls;
    const Scope span(tracer_, Layer::kRoute, rid.value);
    const bool placed = inner_->Route(core, rid, fn);
    if (placed) ++counts_.route_placed;
    return placed;
  }

 private:
  std::unique_ptr<platform::RoutingPolicy> inner_;
  Tracer& tracer_;
  LayerCounts& counts_;
};

class TimedScaling final : public platform::ScalingPolicy {
 public:
  TimedScaling(std::unique_ptr<platform::ScalingPolicy> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  void Attach(platform::PlatformCore& core) override { inner_->Attach(core); }
  void Tick(platform::PlatformCore& core) override {
    const Scope span(tracer_, Layer::kTick);
    inner_->Tick(core);
  }
  void OnCompleted(platform::PlatformCore& core, ffs::RequestId rid,
                   ffs::FunctionId fn) override {
    const Scope span(tracer_, Layer::kOnCompleted, rid.value);
    inner_->OnCompleted(core, rid, fn);
  }

 private:
  std::unique_ptr<platform::ScalingPolicy> inner_;
  Tracer& tracer_;
};

class TimedKeepAlive final : public platform::KeepAlivePolicy {
 public:
  TimedKeepAlive(std::unique_ptr<platform::KeepAlivePolicy> inner,
                 Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  void Attach(platform::PlatformCore& core) override { inner_->Attach(core); }
  void Tick(platform::PlatformCore& core) override {
    const Scope span(tracer_, Layer::kKeepAlive);
    inner_->Tick(core);
  }

 private:
  std::unique_ptr<platform::KeepAlivePolicy> inner_;
  Tracer& tracer_;
};

class TimedRetry final : public platform::RetryPolicy {
 public:
  TimedRetry(std::unique_ptr<platform::RetryPolicy> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  Decision OnFailure(platform::PlatformCore& core, ffs::RequestId rid,
                     ffs::FunctionId fn, int attempt) override {
    const Scope span(tracer_, Layer::kRetry, rid.value);
    return inner_->OnFailure(core, rid, fn, attempt);
  }

 private:
  std::unique_ptr<platform::RetryPolicy> inner_;
  Tracer& tracer_;
};

class TimedQueue final : public qos::QueueDiscipline {
 public:
  TimedQueue(std::unique_ptr<qos::QueueDiscipline> inner, Tracer& tracer,
             LayerCounts& counts)
      : inner_(std::move(inner)), tracer_(tracer), counts_(counts) {}
  const char* name() const override { return inner_->name(); }
  void Enqueue(qos::QueueItem item) override {
    ++counts_.enqueues;
    const Scope span(tracer_, Layer::kQueueOp, item.rid.value);
    inner_->Enqueue(std::move(item));
  }
  bool Remove(ffs::RequestId rid) override {
    const Scope span(tracer_, Layer::kQueueOp, rid.value);
    const bool removed = inner_->Remove(rid);
    if (removed) ++counts_.removes;
    return removed;
  }
  void Drain(const DrainFn& fn) override {
    ++counts_.drain_calls;
    const Scope span(tracer_, Layer::kDrain);
    inner_->Drain([&](const qos::QueueItem& item) {
      ++counts_.offers;
      return fn(item);
    });
  }
  std::size_t size() const override { return inner_->size(); }
  std::size_t DepthOf(ffs::FunctionId fn) const override {
    return inner_->DepthOf(fn);
  }
  std::vector<qos::QueueItem> Snapshot() const override {
    return inner_->Snapshot();
  }
  qos::StageOrder stage_order() const override {
    return inner_->stage_order();
  }

 private:
  std::unique_ptr<qos::QueueDiscipline> inner_;
  Tracer& tracer_;
  LayerCounts& counts_;
};

class TimedAdmission final : public qos::AdmissionController {
 public:
  TimedAdmission(std::unique_ptr<qos::AdmissionController> inner,
                 Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  const char* name() const override { return inner_->name(); }
  sim::RejectCause AdmitAtSubmit(const qos::QueueItem& item, ffs::SimTime now,
                                 const qos::QueueDiscipline& queue) override {
    const Scope span(tracer_, Layer::kAdmission, item.rid.value);
    return inner_->AdmitAtSubmit(item, now, queue);
  }
  sim::RejectCause ReviewAtDispatch(const qos::QueueItem& item,
                                    ffs::SimTime now) override {
    const Scope span(tracer_, Layer::kAdmission, item.rid.value);
    return inner_->ReviewAtDispatch(item, now);
  }

 private:
  std::unique_ptr<qos::AdmissionController> inner_;
  Tracer& tracer_;
};

/// Wrap every policy of `bundle` in a timing decorator. Null keep-alive and
/// retry slots get the defaults PlatformCore would install, so behaviour is
/// unchanged.
platform::PolicyBundle Decorate(platform::PolicyBundle bundle,
                                const platform::PlatformConfig& pconfig,
                                Tracer& tracer, LayerCounts& counts) {
  bundle.routing = std::make_unique<TimedRouting>(std::move(bundle.routing),
                                                  tracer, counts);
  bundle.scaling =
      std::make_unique<TimedScaling>(std::move(bundle.scaling), tracer);
  if (!bundle.keepalive) {
    bundle.keepalive = std::make_unique<platform::NullKeepAlive>();
  }
  bundle.keepalive =
      std::make_unique<TimedKeepAlive>(std::move(bundle.keepalive), tracer);
  if (!bundle.retry) {
    bundle.retry = std::make_unique<platform::BoundedRetryPolicy>(
        pconfig.retry.max_retries, pconfig.retry.base_backoff,
        pconfig.retry.backoff_multiplier);
  }
  bundle.retry = std::make_unique<TimedRetry>(std::move(bundle.retry), tracer);
  bundle.queue = [inner = std::move(bundle.queue), &tracer,
                  &counts](const qos::QosConfig& config) {
    qos::QueuePolicy qp = inner ? inner(config) : qos::MakeQueuePolicy(config);
    qp.discipline =
        std::make_unique<TimedQueue>(std::move(qp.discipline), tracer, counts);
    qp.admission =
        std::make_unique<TimedAdmission>(std::move(qp.admission), tracer);
    return qp;
  };
  return bundle;
}

/// Stamp handlers around the Recorder: subscribed before it, a handler
/// opens a recorder span; subscribed after it, one closes the span.
template <typename... E>
void StampRecorder(sim::EventBus& bus, Tracer& tracer, bool open) {
  (bus.Subscribe<E>([&tracer, open](const E&) {
     if (open) {
       tracer.Begin(Layer::kRecorder);
     } else {
       tracer.End();
     }
   }),
   ...);
}

void StampRecorderEvents(sim::EventBus& bus, Tracer& tracer, bool open) {
  // Every event type metrics::Recorder::SubscribeTo handles.
  StampRecorder<sim::RequestSubmitted, sim::RequestPhaseAccrued,
                sim::RequestCompleted, sim::SliceBound, sim::SliceReleased,
                sim::SliceBusyBegin, sim::SliceBusyEnd,
                sim::PartitionReconfigured, sim::RequestTimedOut,
                sim::RequestRetried, sim::RequestAbandoned,
                sim::RequestRejected, sim::PendingDepthChanged,
                sim::PlacementCommitted, sim::PlacementAborted,
                sim::InstanceFailed, sim::SliceFailed, sim::SliceRepaired>(
      bus, tracer, open);
}

void CountBusEvents(sim::EventBus& bus, BusCounts& n) {
  bus.Subscribe<sim::PlacementCommitted>(
      [&n](const sim::PlacementCommitted& e) {
        ++n.commits;
        n.spawns += static_cast<std::uint64_t>(e.spawns);
      });
  bus.Subscribe<sim::PlacementAborted>(
      [&n](const sim::PlacementAborted&) { ++n.aborts; });
  bus.Subscribe<sim::RequestRetried>(
      [&n](const sim::RequestRetried&) { ++n.retries; });
  bus.Subscribe<sim::InstanceFailed>(
      [&n](const sim::InstanceFailed&) { ++n.instances_failed; });
  bus.Subscribe<sim::SliceBound>(
      [&n](const sim::SliceBound&) { ++n.slice_binds; });
  bus.Subscribe<sim::SliceFailed>(
      [&n](const sim::SliceFailed&) { ++n.slices_failed; });
  bus.Subscribe<sim::SliceRepaired>(
      [&n](const sim::SliceRepaired&) { ++n.slice_repairs; });
  bus.Subscribe<sim::SchedulerTransition>(
      [&n](const sim::SchedulerTransition&) { ++n.transitions; });
  bus.Subscribe<sim::PartitionReconfigured>(
      [&n](const sim::PartitionReconfigured&) { ++n.repartitions; });
  bus.Subscribe<sim::RequestRejected>([&n](const sim::RequestRejected& e) {
    ++n.rejected[static_cast<std::size_t>(e.cause)];
  });
  bus.Subscribe<sim::RequestPhaseAccrued>(
      [&n](const sim::RequestPhaseAccrued& e) {
        if (e.phase == sim::RequestPhase::kQueue) n.queue_us += e.amount;
        if (e.phase == sim::RequestPhase::kLoad) n.load_us += e.amount;
      });
  bus.Subscribe<sim::PendingDepthChanged>(
      [&n](const sim::PendingDepthChanged& e) {
        n.max_depth = std::max(n.max_depth, e.depth);
      });
}

}  // namespace

ExactCounters TracedCell::exact() const {
  std::uint64_t rejections = 0;
  for (std::uint64_t r : bus.rejected) rejections += r;
  return {events,           publishes,   layer.route_calls,
          layer.drain_calls, bus.commits, rejections};
}

/// One traced cell. Mirrors harness::RunContext's constructor and Run()
/// step for step; the digest check against the untraced cell proves it.
TracedCell RunTraced(const harness::ExperimentConfig& config,
                     Clock::time_point epoch, std::size_t span_cap) {
  TracedCell cell;
  Tracer tracer(epoch, span_cap);
  // Samples only around the cell: a sample inside it would land in
  // whichever layer span is open.
  SpeedProbe probe;
  const Clock::time_point t0 = Clock::now();

  gpu::Cluster cluster(std::vector<std::vector<gpu::MigPartition>>(
      static_cast<std::size_t>(config.num_nodes),
      gpu::PartitionSchemeP1(config.gpus_per_node)));
  trace::WorkloadParams wp;
  wp.slo_scale = config.platform.slo_scale;
  wp.duration = config.duration;
  wp.load_factor = config.load_factor;
  wp.seed = config.seed;
  wp.max_stages = config.platform.max_stages;
  const Clock::time_point ts = Clock::now();
  trace::Workload workload = trace::MakeWorkload(config.tier, cluster, wp);
  cell.synth_s = SecondsSince(ts);
  if (!config.custom_trace.empty()) {
    workload.trace.clear();
    for (const trace::Invocation& inv : config.custom_trace) {
      if (inv.time < config.duration) workload.trace.push_back(inv);
    }
    trace::SortTrace(workload.trace);
  }
  cell.invocations = workload.trace.size();

  sim::Simulator simulator;
  sim::EventBus& bus = simulator.bus();
  metrics::Recorder recorder(cluster);
  StampRecorderEvents(bus, tracer, /*open=*/true);
  recorder.SubscribeTo(bus);
  StampRecorderEvents(bus, tracer, /*open=*/false);
  CountBusEvents(bus, cell.bus);

  platform::PlatformConfig pconfig = config.platform;
  if (config.faults.timeout_scale > 0.0) {
    pconfig.request_timeout_scale = config.faults.timeout_scale;
  }
  const Clock::time_point tb = Clock::now();
  platform::PlatformCore core(
      simulator, cluster, workload.functions, pconfig,
      Decorate(platform::MakeSchedulerBundle(harness::Name(config.system)),
               pconfig, tracer, cell.layer));
  cell.build_s = SecondsSince(tb);

  std::unique_ptr<sim::FaultInjector> injector;
  if (config.faults.rate > 0.0) {
    sim::FaultPlan fp;
    fp.rate = config.faults.rate;
    fp.seed = config.faults.seed != 0 ? config.faults.seed
                                      : config.seed ^ 0x9e3779b97f4a7c15ULL;
    fp.mttr = config.faults.mttr;
    fp.horizon = config.duration;
    fp.num_slices = static_cast<int>(cluster.num_slices());
    injector = std::make_unique<sim::FaultInjector>(simulator, fp);
  }
  const Clock::time_point t1 = Clock::now();
  cell.setup_s = std::chrono::duration<double>(t1 - t0).count();

  bool summary_finite = false;
  {
    const Scope cell_span(tracer, Layer::kCell);
    if (injector) injector->Start();
    core.Start();
    for (const trace::Invocation& inv : workload.trace) {
      simulator.At(inv.time, [&core, fn = inv.fn] { core.Submit(fn); });
    }
    {
      const Scope run(tracer, Layer::kSimRun);
      simulator.RunUntil(config.duration);
    }
    const ffs::SimTime cap = config.duration + config.drain_cap;
    while (recorder.finished_requests() < recorder.total_requests() &&
           simulator.Now() < cap) {
      const Scope run(tracer, Layer::kSimRun);
      simulator.RunUntil(simulator.Now() + ffs::Seconds(1.0));
    }
    if (injector) injector->Stop();
    core.Stop();

    ffs::SimTime last_completion = config.duration;
    for (const metrics::RequestRecord& r : recorder.records()) {
      if (r.done()) last_completion = std::max(last_completion, r.completion);
    }
    const Scope summary(tracer, Layer::kSummary);
    recorder.Close(std::max(last_completion, simulator.Now()));
    // The getters RunContext::Run() reads into ExperimentResult.
    cell.mean_depth = recorder.MeanQueueDepth();
    summary_finite = std::isfinite(
        recorder.SloHitRate() + recorder.WindowedThroughput(config.duration) +
        recorder.WindowedGoodput(config.duration) +
        recorder.PlanConflictRate() + recorder.JainFairnessIndex() +
        recorder.WorstFunctionP99() + cell.mean_depth +
        static_cast<double>(recorder.MigTime() + recorder.GpuTime() +
                            recorder.RecoveredRequests()));
  }
  cell.wall_s = SecondsSince(t1);

  cell.events = simulator.events_executed();
  cell.publishes = bus.published();
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    cell.inclusive_s[l] = tracer.inclusive_s(static_cast<Layer>(l));
    cell.self_s[l] = tracer.self_s(static_cast<Layer>(l));
  }
  cell.check = CheckRecords(recorder, cell.invocations);
  if (!summary_finite) cell.check.error += "non-finite summary; ";
  const BusCounts& n = cell.bus;
  if (n.commits != recorder.plans_committed() ||
      n.aborts != recorder.plans_aborted() ||
      n.spawns != recorder.spawns_committed() ||
      n.retries != recorder.retries_total() ||
      n.instances_failed != recorder.instances_failed() ||
      n.slices_failed != recorder.slices_failed() ||
      n.slice_repairs != recorder.slices_repaired()) {
    cell.check.error += "bus counts disagree with the recorder; ";
  }
  cell.latencies_s = recorder.LatenciesSeconds();
  const double speed = probe.Finish();
  for (double* t : {&cell.setup_s, &cell.synth_s, &cell.build_s, &cell.wall_s}) {
    *t *= speed;
  }
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    cell.inclusive_s[l] *= speed;
    cell.self_s[l] *= speed;
  }
  cell.spans = tracer.spans();
  cell.dropped_spans = tracer.dropped_spans();
  return cell;
}

}  // namespace perfbench
