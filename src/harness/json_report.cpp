#include "harness/json_report.h"

#include "common/error.h"
#include "common/json.h"

namespace fluidfaas::harness {
namespace {

void WriteResult(JsonWriter& w, const ExperimentResult& r) {
  FFS_CHECK_MSG(r.recorder != nullptr,
                "a JSON report needs the run's recorder");
  const metrics::Recorder& rec = *r.recorder;
  w.BeginObject();
  w.Key("system").Value(r.system);
  w.Key("tier").Value(r.tier);
  w.Key("offered_rps").Value(r.offered_rps);
  w.Key("ideal_rps").Value(r.ideal_rps);
  w.Key("throughput_rps").Value(r.throughput_rps);
  w.Key("slo_hit_rate").Value(rec.SloHitRate());
  w.Key("makespan_s").Value(ToSeconds(r.makespan));
  w.Key("mig_time_s").Value(ToSeconds(rec.MigTime()));
  w.Key("gpu_time_s").Value(ToSeconds(rec.GpuTime()));
  w.Key("total_gpcs").Value(rec.total_gpcs());
  w.Key("total_requests").Value(rec.total_requests());
  w.Key("completed_requests").Value(rec.completed_requests());
  if (rec.completed_requests() > 0) {
    w.Key("latency_p50_s").Value(rec.LatencyPercentile(0.5));
    w.Key("latency_p95_s").Value(rec.LatencyPercentile(0.95));
    w.Key("latency_p99_s").Value(rec.LatencyPercentile(0.99));
  }
  w.Key("per_function").BeginArray();
  for (std::size_t f = 0; f < r.function_names.size(); ++f) {
    const FunctionId fn(static_cast<std::int32_t>(f));
    w.BeginObject();
    w.Key("name").Value(r.function_names[f]);
    w.Key("slo_s").Value(ToSeconds(r.function_slos[f]));
    w.Key("slo_hit_rate").Value(rec.SloHitRate(fn));
    w.EndObject();
  }
  w.EndArray();
  w.Key("availability").BeginObject();
  w.Key("goodput_rps").Value(r.goodput_rps);
  w.Key("timeouts").Value(rec.timeouts());
  w.Key("retries").Value(rec.retries_total());
  w.Key("abandoned").Value(rec.abandoned_requests());
  w.Key("recovered").Value(rec.RecoveredRequests());
  w.Key("instances_failed").Value(rec.instances_failed());
  w.Key("slices_failed").Value(rec.slices_failed());
  w.EndObject();
  w.Key("placement").BeginObject();
  w.Key("plans_committed").Value(rec.plans_committed());
  w.Key("plans_aborted").Value(rec.plans_aborted());
  w.Key("spawns_committed").Value(rec.spawns_committed());
  w.Key("conflict_rate").Value(rec.PlanConflictRate());
  w.Key("aborts_by_cause").BeginObject();
  // kNone never aborts a plan; start at the first real cause.
  for (int c = 1; c < sim::kNumPlanAbortCauses; ++c) {
    const auto cause = static_cast<sim::PlanAbortCause>(c);
    w.Key(sim::Name(cause)).Value(rec.plans_aborted_by(cause));
  }
  w.EndObject();
  w.EndObject();
  w.Key("qos").BeginObject();
  w.Key("rejected").Value(rec.rejected_requests());
  w.Key("rejects_by_cause").BeginObject();
  // kNone never rejects a request; start at the first real cause.
  for (int c = 1; c < sim::kNumRejectCauses; ++c) {
    const auto cause = static_cast<sim::RejectCause>(c);
    w.Key(sim::Name(cause)).Value(rec.rejected_by(cause));
  }
  w.EndObject();
  w.Key("mean_queue_depth").Value(rec.MeanQueueDepth());
  w.Key("jain_fairness").Value(rec.JainFairnessIndex());
  w.Key("worst_fn_p99_s").Value(rec.WorstFunctionP99());
  w.EndObject();
  w.Key("scheduler").BeginObject();
  using sim::TransitionKind;
  w.Key("pipelines_launched").Value(rec.pipelines_committed());
  w.Key("evictions").Value(rec.transitions(TransitionKind::kEviction));
  w.Key("promotions").Value(rec.transitions(TransitionKind::kPromotion));
  w.Key("demotions").Value(rec.transitions(TransitionKind::kDemotion));
  w.Key("migrations").Value(rec.transitions(TransitionKind::kMigration));
  w.Key("reconfigurations").Value(rec.reconfigurations());
  w.Key("reconfiguration_blackout_s")
      .Value(ToSeconds(rec.reconfiguration_blackout()));
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::string ResultToJson(const ExperimentResult& result) {
  JsonWriter w;
  WriteResult(w, result);
  return w.Take();
}

std::string ResultsToJson(const std::vector<ExperimentResult>& results) {
  JsonWriter w;
  w.BeginArray();
  for (const auto& r : results) WriteResult(w, r);
  w.EndArray();
  return w.Take();
}

}  // namespace fluidfaas::harness
