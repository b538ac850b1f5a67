#include "platform/platform.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <variant>

#include "common/error.h"
#include "model/costs.h"
#include "sim/events.h"

namespace fluidfaas::platform {

PlatformCore::PlatformCore(sim::Simulator& sim, gpu::Cluster& cluster,
                           std::vector<FunctionSpec> functions,
                           PlatformConfig config, PolicyBundle bundle)
    : functions_(std::move(functions)),
      sim_(sim),
      cluster_(cluster),
      config_(config),
      rng_(config.seed),
      routing_(std::move(bundle.routing)),
      scaling_(std::move(bundle.scaling)),
      keepalive_(std::move(bundle.keepalive)),
      retry_(std::move(bundle.retry)),
      fns_(functions_.size()) {
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    FFS_CHECK_MSG(functions_[i].id ==
                      FunctionId(static_cast<std::int32_t>(i)),
                  "function ids must be dense and ordered");
  }
  FFS_CHECK_MSG(routing_ != nullptr, "bundle needs a RoutingPolicy");
  FFS_CHECK_MSG(scaling_ != nullptr, "bundle needs a ScalingPolicy");
  if (!keepalive_) keepalive_ = std::make_unique<NullKeepAlive>();
  if (config_.service_jitter_cv > 0.0) {
    // Log-normal with unit mean: sigma^2 = ln(1 + cv^2), mu = -sigma^2/2.
    const double s2 = std::log(1.0 + config_.service_jitter_cv *
                                         config_.service_jitter_cv);
    jitter_mu_ = -0.5 * s2;
    jitter_sigma_ = std::sqrt(s2);
  }
  {
    qos::QueuePolicy qp = bundle.queue ? bundle.queue(config_.qos)
                                       : qos::MakeQueuePolicy(config_.qos);
    FFS_CHECK_MSG(qp.discipline != nullptr && qp.admission != nullptr,
                  "queue policy must supply a discipline and an admission "
                  "controller");
    pending_q_ = std::move(qp.discipline);
    admission_ = std::move(qp.admission);
  }
  if (!retry_) {
    retry_ = std::make_unique<BoundedRetryPolicy>(
        config_.retry.max_retries, config_.retry.base_backoff,
        config_.retry.backoff_multiplier);
  }
  routing_->Attach(*this);
  scaling_->Attach(*this);
  keepalive_->Attach(*this);

  // Fault-command intake (sim/events.h). Without a FaultInjector these
  // subscriptions never fire; commands naming dead entities are dropped so
  // the injector's RNG stream stays independent of platform state.
  fault_subs_.push_back(bus().SubscribeScoped<sim::InstanceCrashRequested>(
      [this](const sim::InstanceCrashRequested& e) {
        if (Instance* inst = FindInstance(e.iid)) {
          FailInstance(inst, sim::FaultKind::kInstanceCrash);
        }
      }));
  fault_subs_.push_back(bus().SubscribeScoped<sim::SliceFailureRequested>(
      [this](const sim::SliceFailureRequested& e) {
        if (cluster_.IsDead(e.slice) || cluster_.IsFailed(e.slice)) return;
        const gpu::MigSlice& s = cluster_.slice(e.slice);
        if (s.free()) {
          FailSlice(e.slice, e.repair);
          return;
        }
        Instance* inst = FindInstance(s.occupant);
        // Sentinel occupants (repartition blackout) have no instance to
        // crash; the injection lands on the reconfiguring GPU and is lost.
        if (inst == nullptr) return;
        FailInstance(inst, sim::FaultKind::kSliceFailure, e.slice, e.repair);
      }));
  fault_subs_.push_back(bus().SubscribeScoped<sim::ColdStartFailureArmed>(
      [this](const sim::ColdStartFailureArmed&) {
        ++pending_cold_failures_;
      }));
  fault_subs_.push_back(bus().SubscribeScoped<sim::SlowStartArmed>(
      [this](const sim::SlowStartArmed& e) {
        pending_slow_factors_.push_back(e.factor);
      }));
}

PlatformCore::~PlatformCore() = default;

void PlatformCore::Start() {
  FFS_CHECK_MSG(autoscale_ == nullptr, "Start() called twice");
  last_tick_ = sim_.Now();
  autoscale_ = std::make_unique<sim::PeriodicTask>(
      sim_, kAutoscalePeriod, [this] {
        // Update arrival-rate EWMAs before the policy scan.
        const double period_s = ToSeconds(kAutoscalePeriod);
        for (FunctionRow& row : fns_) {
          const double inst_rate =
              static_cast<double>(row.arrivals_this_tick) / period_s;
          row.arrival_rate = 0.5 * row.arrival_rate + 0.5 * inst_rate;
          // A geometric decay never reaches zero; clamp so a long-idle
          // function stops looking like residual demand to the scalers.
          if (row.arrival_rate < 1e-6) row.arrival_rate = 0.0;
          row.arrivals_this_tick = 0;
        }
        // Refresh smoothed utilizations; the smoothing constant gives the
        // EWMA an effective memory of about one kUtilWindow.
        const double alpha =
            std::min(1.0, static_cast<double>(kAutoscalePeriod) /
                              static_cast<double>(kUtilWindow));
        for (InstanceRow& row : instances_) {
          if (row.inst->state() == InstanceState::kRetired) continue;
          row.util_ewma = (1.0 - alpha) * row.util_ewma +
                          alpha * TickUtilization(row.inst.get());
        }
        scaling_->Tick(*this);
        keepalive_->Tick(*this);
        DispatchPending();
        last_tick_ = sim_.Now();
      });
  autoscale_->Start(sim_.Now() + kAutoscalePeriod);
}

void PlatformCore::Stop() {
  if (autoscale_) autoscale_->Stop();
}

std::size_t PlatformCore::FnIndex(FunctionId fn) const {
  FFS_CHECK(fn.valid() &&
            static_cast<std::size_t>(fn.value) < functions_.size());
  return static_cast<std::size_t>(fn.value);
}

std::size_t PlatformCore::RowIndex(const Instance* inst) const {
  const auto idx = static_cast<std::size_t>(inst->id().value);
  FFS_CHECK(idx < instances_.size() && instances_[idx].inst.get() == inst);
  return idx;
}

const FunctionSpec& PlatformCore::function(FunctionId fn) const {
  return functions_[FnIndex(fn)];
}

RequestId PlatformCore::Submit(FunctionId fn) {
  const FunctionSpec& spec = function(fn);
  const SimTime now = sim_.Now();
  const RequestId rid = CheckedId<RequestId>(next_request_id_++);
  const SimTime deadline = now + spec.slo;
  bus().Publish(sim::RequestSubmitted{rid, fn, now, deadline});
  meta_.push_back(ReqMeta{fn, deadline, SampleJitter()});
  fns_[FnIndex(fn)].arrivals_this_tick += 1;
  // Admission gate (rate limit / depth cap). NullAdmission — the default —
  // always admits, leaving the fault-free event stream untouched.
  const sim::RejectCause gate =
      admission_->AdmitAtSubmit(MakeQueueItem(rid, fn), now, *pending_q_);
  if (gate != sim::RejectCause::kNone) {
    RejectRequest(rid, fn, gate);
    return rid;
  }
  if (config_.request_timeout_scale > 0.0) {
    const SimTime expire =
        now + static_cast<SimDuration>(
                  std::llround(config_.request_timeout_scale *
                               static_cast<double>(spec.slo)));
    std::deque<Timeout>& lane = fns_[FnIndex(fn)].timeouts;
    FFS_CHECK(lane.empty() || lane.back().expire <= expire);
    lane.push_back(Timeout{expire, sim_.Reserve(), rid});
    if (lane.size() == 1) ArmTimeout(fn);
  }
  if (!routing_->Route(*this, rid, fn)) MakePending(rid, fn);
  return rid;
}

double PlatformCore::JitterOf(RequestId rid) const {
  const ReqMeta* m = FindMeta(rid);
  return m == nullptr ? 1.0 : m->jitter;
}

SimTime PlatformCore::DeadlineOf(RequestId rid) const {
  const ReqMeta* m = FindMeta(rid);
  FFS_CHECK_MSG(m != nullptr, "DeadlineOf on a non-outstanding request");
  return m->deadline;
}

double PlatformCore::SampleJitter() {
  if (config_.service_jitter_cv <= 0.0) return 1.0;
  return rng_.LogNormal(jitter_mu_, jitter_sigma_);
}

const PlatformCore::ReqMeta* PlatformCore::FindMeta(RequestId rid) const {
  const std::int64_t i = rid.value - meta_base_;
  if (i < static_cast<std::int64_t>(meta_head_) ||
      i >= static_cast<std::int64_t>(meta_.size())) {
    return nullptr;
  }
  const ReqMeta& m = meta_[static_cast<std::size_t>(i)];
  return m.outstanding ? &m : nullptr;
}

void PlatformCore::EraseMeta(RequestId rid) {
  ReqMeta* m = FindMeta(rid);
  FFS_CHECK_MSG(m != nullptr, "forgetting a non-outstanding request");
  m->outstanding = false;
  while (meta_head_ < meta_.size() && !meta_[meta_head_].outstanding) {
    ++meta_head_;
  }
  // Drop the finished prefix once it is at least half the window: each
  // row moves at most once per row dropped, and the capacity stays.
  if (2 * meta_head_ >= meta_.size()) {
    meta_.erase(meta_.begin(),
                meta_.begin() + static_cast<std::ptrdiff_t>(meta_head_));
    meta_base_ += static_cast<std::int64_t>(meta_head_);
    meta_head_ = 0;
  }
}

const std::vector<Instance*>& PlatformCore::InstancesOf(FunctionId fn) const {
  return fns_[FnIndex(fn)].live;
}

qos::QueueItem PlatformCore::MakeQueueItem(RequestId rid,
                                           FunctionId fn) const {
  const FunctionSpec& spec = function(fn);
  // Adjusted deadline: deadline − estimated execution − load time (§5.3).
  const SimDuration est_exec = spec.base_latency;
  const SimDuration est_load =
      IsWarm(fn) ? model::WarmLoad(spec.dag.TotalMemory() / 2) : 0;
  qos::QueueItem item;
  item.rid = rid;
  item.fn = fn;
  item.deadline = DeadlineOf(rid);
  item.priority = item.deadline - est_exec - est_load;
  item.service_estimate = est_exec + est_load;
  return item;
}

void PlatformCore::PublishPendingDepth() {
  const std::size_t depth = pending_q_->size();
  if (depth == last_depth_published_) return;
  last_depth_published_ = depth;
  bus().Publish(sim::PendingDepthChanged{depth, sim_.Now()});
}

void PlatformCore::RejectRequest(RequestId rid, FunctionId fn,
                                 sim::RejectCause cause) {
  bus().Publish(sim::RequestRejected{rid, fn, cause, sim_.Now()});
  EraseMeta(rid);
}

sim::PlanAbortCause PlatformCore::ValidatePlan(const PlacementPlan& plan) {
  // Walk the actions in order, simulating slice availability: an eviction
  // frees its victim's slices for later spawns, a spawn claims its stage
  // slices against later actions. The first impossibility aborts the plan.
  std::set<std::int32_t> freed;  // released by an earlier EvictAction
  std::set<std::int32_t> taken;  // claimed by an earlier SpawnAction
  for (const PlacementAction& action : plan.actions) {
    if (const auto* spawn = std::get_if<SpawnAction>(&action)) {
      for (const core::StageBinding& s : spawn->pipeline.stages) {
        const SliceId sid = s.slice;
        if (!sid.valid() ||
            static_cast<std::size_t>(sid.value) >= cluster_.num_slices() ||
            cluster_.IsDead(sid)) {
          return sim::PlanAbortCause::kSliceRetired;
        }
        if (taken.count(sid.value) != 0) {
          return sim::PlanAbortCause::kSliceConflict;
        }
        const gpu::MigSlice& live = cluster_.slice(sid);
        if (live.failed) return sim::PlanAbortCause::kSliceFailed;
        if (!live.free() && freed.count(sid.value) == 0) {
          return sim::PlanAbortCause::kSliceConflict;
        }
        taken.insert(sid.value);
      }
    } else if (const auto* evict = std::get_if<EvictAction>(&action)) {
      Instance* victim = FindInstance(evict->victim);
      if (victim == nullptr) return sim::PlanAbortCause::kVictimGone;
      if (!victim->Idle()) return sim::PlanAbortCause::kVictimBusy;
      for (const core::StageBinding& s : victim->plan().stages) {
        freed.insert(s.slice.value);
      }
    } else if (const auto* drain = std::get_if<DrainAction>(&action)) {
      if (FindInstance(drain->victim) == nullptr) {
        return sim::PlanAbortCause::kVictimGone;
      }
    } else {
      const auto& rp = std::get<RepartitionAction>(action);
      for (const gpu::MigSlice& s : cluster_.gpu(rp.gpu).slices()) {
        if ((!s.free() && freed.count(s.id.value) == 0) ||
            taken.count(s.id.value) != 0) {
          return sim::PlanAbortCause::kGpuNotIdle;
        }
      }
    }
  }
  return sim::PlanAbortCause::kNone;
}

CommitResult PlatformCore::Commit(const PlacementPlan& plan) {
  CommitResult result;
  const SimTime now = sim_.Now();
  result.cause = ValidatePlan(plan);
  if (!result.ok()) {
    bus().Publish(sim::PlacementAborted{result.cause, plan.NumActions(), now});
    return result;
  }
  for (const PlacementAction& action : plan.actions) {
    if (const auto* spawn = std::get_if<SpawnAction>(&action)) {
      result.spawned.push_back(LaunchInstance(function(spawn->fn),
                                              spawn->pipeline, spawn->warm,
                                              spawn->extra_load_delay));
    } else if (const auto* evict = std::get_if<EvictAction>(&action)) {
      RetireInstance(FindInstance(evict->victim));
    } else if (const auto* drain = std::get_if<DrainAction>(&action)) {
      DrainOrRetire(FindInstance(drain->victim));
    } else {
      const auto& rp = std::get<RepartitionAction>(action);
      result.fresh_slices = cluster_.RepartitionGpu(rp.gpu, rp.target);
      // PartitionReconfigured first: per-slice observers re-sync their id
      // space on it before the sentinel SliceBound announcements arrive.
      bus().Publish(sim::PartitionReconfigured{rp.gpu, now,
                                               rp.target.ToString(),
                                               rp.blackout});
      if (rp.sentinel.valid()) {
        for (SliceId sid : result.fresh_slices) {
          cluster_.Bind(sid, rp.sentinel);
          bus().Publish(sim::SliceBound{sid, rp.sentinel, now});
        }
      }
    }
  }
  int pipelines = 0;
  for (const Instance* inst : result.spawned) {
    if (inst->IsPipelined()) ++pipelines;
  }
  bus().Publish(sim::PlacementCommitted{plan.NumActions(), plan.NumSpawns(),
                                        pipelines, now});
  return result;
}

void PlatformCore::FinishRepartition(const std::vector<SliceId>& fresh,
                                     InstanceId sentinel) {
  const SimTime now = sim_.Now();
  for (SliceId sid : fresh) {
    if (cluster_.IsDead(sid)) continue;  // re-repartitioned meanwhile
    cluster_.Release(sid, sentinel);
    bus().Publish(sim::SliceReleased{sid, sentinel, now});
  }
}

Instance* PlatformCore::LaunchInstance(const FunctionSpec& fn,
                                       core::PipelinePlan plan, bool warm,
                                       SimDuration extra_load_delay) {
  const InstanceId iid = CheckedId<InstanceId>(instances_.size());
  const SimTime now = sim_.Now();

  // Stages load in parallel (one process per slice); the instance is ready
  // when the largest stage finishes loading.
  Bytes max_stage_weights = 0;
  for (const core::StageBinding& s : plan.stages) {
    max_stage_weights = std::max(max_stage_weights, s.plan.weights);
  }
  SimDuration weight_load = warm ? model::WarmLoad(max_stage_weights)
                                 : model::ColdLoad(max_stage_weights);
  if (!pending_slow_factors_.empty()) {
    // An armed slow-start straggler hits the next launch.
    const double factor = pending_slow_factors_.front();
    pending_slow_factors_.pop_front();
    weight_load = static_cast<SimDuration>(
        std::llround(factor * static_cast<double>(weight_load)));
  }
  const SimDuration load = extra_load_delay + weight_load;

  for (const core::StageBinding& s : plan.stages) {
    cluster_.Bind(s.slice, iid);
    bus().Publish(sim::SliceBound{s.slice, iid, now});
  }

  instances_.push_back(InstanceRow{std::make_unique<Instance>(
      iid, fn.id, std::move(plan), sim_,
      [this](RequestId rid) { HandleCompletion(rid); })});
  Instance* raw = instances_.back().inst.get();
  fns_[FnIndex(fn.id)].live.push_back(raw);
  raw->SetBatching(config_.max_batch, kBatchMarginalCost);
  raw->SetStageOrder(pending_q_->stage_order());
  raw->Launch(load);
  if (!warm && pending_cold_failures_ > 0 && load > 0) {
    // An armed cold-start failure dooms this launch: the instance crashes
    // the moment its load completes (the load time is wasted).
    --pending_cold_failures_;
    sim_.At(now + load, [this, iid] {
      if (Instance* doomed = FindInstance(iid)) {
        FailInstance(doomed, sim::FaultKind::kColdStartFailure);
      }
    });
  }
  return raw;
}

void PlatformCore::RetireInstance(Instance* inst) {
  FFS_CHECK(inst->state() != InstanceState::kRetired);
  FFS_CHECK_MSG(inst->Idle(), "retiring a busy instance");
  if (inst->state() == InstanceState::kDraining) --draining_;
  const SimTime now = sim_.Now();
  for (const core::StageBinding& s : inst->plan().stages) {
    cluster_.Release(s.slice, inst->id());
    bus().Publish(sim::SliceReleased{s.slice, inst->id(), now});
  }
  inst->MarkRetired();
  std::erase(fns_[FnIndex(inst->function())].live, inst);
  TouchWarm(inst->function());
}

bool PlatformCore::DrainOrRetire(Instance* inst) {
  if (inst->Idle()) {
    RetireInstance(inst);
    return true;
  }
  if (inst->BeginDrain()) ++draining_;
  return false;
}

bool PlatformCore::IsWarm(FunctionId fn) const {
  return fns_[FnIndex(fn)].warm_until > sim_.Now();
}

void PlatformCore::TouchWarm(FunctionId fn) {
  fns_[FnIndex(fn)].warm_until = sim_.Now() + kWarmTimeout;
}

double PlatformCore::ArrivalRate(FunctionId fn) const {
  return fns_[FnIndex(fn)].arrival_rate;
}

double PlatformCore::TickUtilization(Instance* inst) {
  const SimTime now = sim_.Now();
  const SimDuration total = inst->ActiveTotal(now);
  SimDuration& prev = instances_[RowIndex(inst)].active_snapshot;
  const SimDuration window = now - last_tick_;
  const SimDuration delta = total - prev;
  prev = total;
  if (window <= 0) return 0.0;
  return std::clamp(static_cast<double>(delta) / static_cast<double>(window),
                    0.0, 1.0);
}

double PlatformCore::UtilizationOf(const Instance* inst) const {
  return instances_[RowIndex(inst)].util_ewma;
}

void PlatformCore::MakePending(RequestId rid, FunctionId fn) {
  pending_q_->Enqueue(MakeQueueItem(rid, fn));
  PublishPendingDepth();
}

void PlatformCore::DispatchPending() {
  // Requests are offered in discipline order (the default fifo queue:
  // ascending adjusted deadline); the ones that still cannot be placed
  // stay pending. The admission controller re-judges each request first —
  // work that can no longer meet its deadline is shed instead of routed.
  //
  // The refusal bars rest on the RoutingPolicy::Route contract: while the
  // state stands still, refusals are monotone in due = max(deadline, now),
  // and a refusal's promised reach holds. A placement, or any publish
  // during the call, may have moved the state, so it drops every bar. A
  // kKeep answered from a bar carries the bar as its keep-through bound,
  // which lets a key-ordered queue jump over the rest of the function's
  // blocked run.
  refused_due_.assign(functions_.size(), kNoReach);
  // Capturing only [this, now] keeps the closure inside std::function's
  // small buffer, so a pass allocates nothing.
  pending_q_->Drain([this, now = sim_.Now()](
                        const qos::QueueItem& item) -> qos::DrainVerdict {
    const sim::RejectCause shed = admission_->ReviewAtDispatch(item, now);
    if (shed != sim::RejectCause::kNone) {
      RejectRequest(item.rid, item.fn, shed);
      return qos::DrainVerdict::kDrop;
    }
    const SimTime due = std::max(item.deadline, now);
    SimTime& bar = refused_due_[static_cast<std::size_t>(item.fn.value)];
    if (due <= bar) return qos::DrainVerdict::KeepThrough(bar);
    const std::uint64_t published = bus().published();
    refuse_through_ = kNoReach;
    const bool placed = routing_->Route(*this, item.rid, item.fn);
    if (placed || bus().published() != published) {
      std::fill(refused_due_.begin(), refused_due_.end(), kNoReach);
      return placed ? qos::DrainVerdict::kDispatch : qos::DrainVerdict::kKeep;
    }
    bar = std::max(due, refuse_through_);  // raises it: due > bar here
    return qos::DrainVerdict::KeepThrough(bar);
  });
  PublishPendingDepth();
}

void PlatformCore::HandleCompletion(RequestId rid) {
  const ReqMeta* m = FindMeta(rid);
  FFS_CHECK_MSG(m != nullptr, "completion for unknown request");
  const FunctionId fn = m->fn;
  bus().Publish(sim::RequestCompleted{rid, fn, sim_.Now()});
  EraseMeta(rid);
  scaling_->OnCompleted(*this, rid, fn);
  DispatchPending();
}

Instance* PlatformCore::FindInstance(InstanceId iid) {
  if (!iid.valid()) return nullptr;
  const auto idx = static_cast<std::size_t>(iid.value);
  // Sentinel occupants (e.g. repartition blackout markers) fall outside the
  // dense id range and resolve to null.
  if (idx >= instances_.size()) return nullptr;
  Instance* inst = instances_[idx].inst.get();
  FFS_CHECK(inst->id() == iid);
  return inst->Gone() ? nullptr : inst;
}

void PlatformCore::FailInstance(Instance* inst, sim::FaultKind cause,
                                SliceId failed_slice, SimDuration repair) {
  if (inst->Gone()) return;
  if (inst->state() == InstanceState::kDraining) --draining_;
  const SimTime now = sim_.Now();
  const core::PipelinePlan& plan = inst->plan();
  const std::vector<Instance::FailedWork> victims = inst->Fail();
  std::erase(fns_[FnIndex(inst->function())].live, inst);
  bus().Publish(sim::InstanceFailed{inst->id(), inst->function(), cause, now});
  for (const core::StageBinding& s : plan.stages) {
    cluster_.Release(s.slice, inst->id());
    bus().Publish(sim::SliceReleased{s.slice, inst->id(), now});
  }
  // No TouchWarm: a crash says nothing about the CPU-resident weight copy,
  // and the retire path's refresh would make fault runs look warmer.
  if (failed_slice.valid()) FailSlice(failed_slice, repair);
  // No replacement here: the scheduler's own routing and scale-up rebuild
  // the lost capacity, so every live instance is one a policy placed.
  for (const Instance::FailedWork& w : victims) {
    HandleFailedRequest(w.rid, w.stage, plan.num_stages());
  }
  DispatchPending();
}

void PlatformCore::FailSlice(SliceId sid, SimDuration repair) {
  cluster_.MarkFailed(sid);
  const SimTime now = sim_.Now();
  bus().Publish(sim::SliceFailed{sid, now, repair});
  sim_.After(std::max<SimDuration>(repair, Millis(1)), [this, sid] {
    if (cluster_.IsDead(sid)) return;  // repartitioned away meanwhile
    cluster_.Repair(sid);
    bus().Publish(sim::SliceRepaired{sid, sim_.Now()});
    DispatchPending();
  });
}

void PlatformCore::HandleFailedRequest(RequestId rid, int stage,
                                       int num_stages) {
  ReqMeta* m = FindMeta(rid);
  if (m == nullptr) return;
  const FunctionId fn = m->fn;
  if (m->timed_out) {
    // Already past its enforcement timeout; a retry could never be goodput.
    bus().Publish(sim::RequestAbandoned{rid, fn, m->attempts, sim_.Now()});
    EraseMeta(rid);
    return;
  }
  const int attempts = ++m->attempts;
  const RetryPolicy::Decision d = retry_->OnFailure(*this, rid, fn, attempts);
  if (!d.retry) {
    bus().Publish(sim::RequestAbandoned{rid, fn, attempts, sim_.Now()});
    EraseMeta(rid);
    return;
  }
  sim_.After(std::max<SimDuration>(d.backoff, 0),
             [this, rid, fn, stage, num_stages] {
               Resubmit(rid, fn, stage, num_stages);
             });
}

void PlatformCore::Resubmit(RequestId rid, FunctionId fn, int stage,
                            int num_stages) {
  const ReqMeta* m = FindMeta(rid);
  if (m == nullptr) return;  // expired during the backoff
  const SimTime now = sim_.Now();
  bool resumed = false;
  if (stage > 0) {
    // The request already completed stages [0, stage); a surviving instance
    // with the same pipeline shape can pick it up at the failed stage
    // instead of replaying the finished work.
    for (Instance* inst : InstancesOf(fn)) {
      if (!inst->CanAdmit()) continue;
      if (inst->plan().num_stages() != num_stages) continue;
      inst->EnqueueAt(static_cast<std::size_t>(stage), rid, m->jitter,
                      m->deadline);
      resumed = true;
      break;
    }
  }
  bus().Publish(sim::RequestRetried{rid, fn, m->attempts, resumed, now});
  if (resumed) return;
  if (!routing_->Route(*this, rid, fn)) MakePending(rid, fn);
}

void PlatformCore::ArmTimeout(FunctionId fn) {
  const Timeout& t = fns_[FnIndex(fn)].timeouts.front();
  sim_.AtReserved(t.expire, t.id, [this, fn] { FireTimeout(fn); });
}

void PlatformCore::FireTimeout(FunctionId fn) {
  std::deque<Timeout>& lane = fns_[FnIndex(fn)].timeouts;
  const RequestId rid = lane.front().rid;
  lane.pop_front();
  while (!lane.empty() && FindMeta(lane.front().rid) == nullptr) {
    lane.pop_front();
  }
  // Armed before the expiry runs, so a Submit it causes finds the lane in
  // its resting state: empty, or its front scheduled.
  if (!lane.empty()) ArmTimeout(fn);
  ExpireRequest(rid);
}

void PlatformCore::ExpireRequest(RequestId rid) {
  ReqMeta* m = FindMeta(rid);
  if (m == nullptr) return;  // completed or abandoned in time
  const FunctionId fn = m->fn;
  const SimTime now = sim_.Now();
  // Still in the pending set: cancel outright.
  if (pending_q_->Remove(rid)) {
    bus().Publish(sim::RequestTimedOut{rid, fn, false, now});
    EraseMeta(rid);
    PublishPendingDepth();
    return;
  }
  // Queued on an instance but not yet executing: abort it there.
  for (Instance* inst : InstancesOf(fn)) {
    if (inst->Abort(rid)) {
      bus().Publish(sim::RequestTimedOut{rid, fn, false, now});
      EraseMeta(rid);
      DispatchPending();
      return;
    }
  }
  // Mid-execution (or mid-transfer / mid-retry-backoff): the work finishes
  // but no longer counts as goodput.
  m->timed_out = true;
  bus().Publish(sim::RequestTimedOut{rid, fn, true, now});
}

RetryPolicy::Decision BoundedRetryPolicy::OnFailure(PlatformCore& core,
                                                    RequestId rid,
                                                    FunctionId fn,
                                                    int attempt) {
  (void)core;
  (void)rid;
  (void)fn;
  if (attempt > max_retries_) return Decision{};
  const double scale = std::pow(multiplier_, attempt - 1);
  return Decision{true, static_cast<SimDuration>(std::llround(
                            scale * static_cast<double>(base_backoff_)))};
}

void FixedIdleKeepAlive::Tick(PlatformCore& core) {
  const SimDuration keepalive = core.config().exclusive_keepalive;
  const SimTime now = core.simulator().Now();
  // Walk the ids in creation order without copying the live list: retiring
  // appends no id, and one launched during the walk is not visited.
  const std::size_t bound = core.InstanceIdBound();
  for (std::size_t i = 0; i < bound; ++i) {
    Instance* inst = core.FindInstance(CheckedId<InstanceId>(i));
    if (inst == nullptr || inst->state() != InstanceState::kReady) continue;
    if (!inst->Idle()) continue;
    if (now - inst->last_used() >= keepalive) core.RetireInstance(inst);
  }
}

Instance* LeastLoaded(const std::vector<Instance*>& insts, SimTime now) {
  Instance* best = nullptr;
  SimTime best_est = kTimeInfinity;
  for (Instance* inst : insts) {
    if (!inst->CanAdmit()) continue;
    const SimTime est = inst->EstimateCompletion(now);
    if (est < best_est) {
      best_est = est;
      best = inst;
    }
  }
  return best;
}

double AdmittingCapacity(const std::vector<Instance*>& insts) {
  double capacity = 0.0;
  for (Instance* inst : insts) {
    if (inst->CanAdmit()) capacity += inst->CapacityRps();
  }
  return capacity;
}

bool AdmitBounded(PlatformCore& core, Instance* inst, RequestId rid) {
  if (inst == nullptr) {
    core.RefuseThrough(kRefuseAll);
    return false;
  }
  const SimTime now = core.simulator().Now();
  const SimTime deadline = core.DeadlineOf(rid);
  const SimDuration slo = core.function(inst->function()).slo;
  if (!inst->AdmitWithinBound(now, deadline, slo)) {
    core.RefuseThrough(inst->AdmitsFrom(now, slo) - 1);
    return false;
  }
  inst->Enqueue(rid, core.JitterOf(rid), deadline);
  return true;
}

Instance* LaunchMonolithic(PlatformCore& core, const FunctionSpec& spec,
                           std::optional<NodeId> node) {
  auto plan =
      core::MonolithicPlanOnSmallestSlice(spec.dag, core.cluster(), node);
  if (!plan) return nullptr;
  const CommitResult result = core.Commit(
      SpawnPlan(spec.id, std::move(*plan), core.IsWarm(spec.id)));
  return result.ok() ? result.spawned.front() : nullptr;
}

bool GrowCapacity(double rate, double capacity,
                  const std::function<Instance*()>& launch) {
  int guard = 0;
  while (rate > kScaleupLoadFactor * capacity && guard++ < 8) {
    Instance* inst = launch();
    if (inst == nullptr) return false;
    capacity += inst->CapacityRps();
  }
  return true;
}

void RetireDrainedIdle(PlatformCore& core) {
  if (core.draining() == 0) return;  // only a draining instance retires here
  const auto drained = [](const Instance* inst) {
    return inst->state() == InstanceState::kDraining && inst->Idle();
  };
  for (const FunctionSpec& spec : core.functions()) {
    const std::vector<Instance*>& live = core.InstancesOf(spec.id);
    if (std::none_of(live.begin(), live.end(), drained)) continue;
    // A copy: RetireInstance removes from the live list.
    const std::vector<Instance*> retiring = live;
    for (Instance* inst : retiring) {
      if (drained(inst)) core.RetireInstance(inst);
    }
  }
}

}  // namespace fluidfaas::platform
