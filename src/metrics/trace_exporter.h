// Chrome-trace (chrome://tracing / Perfetto) exporter.
//
// A second, independent EventBus subscriber: it turns the structured
// simulation events into the Trace Event JSON format
// ({"traceEvents": [...]}, `ph` X/i/M, timestamps in µs — which SimTime
// already is). Load the written file in chrome://tracing or
// https://ui.perfetto.dev to see, per run:
//
//   process "requests"  — one track per function; a complete-event span per
//                         finished request from arrival to completion.
//   process "instances" — one track per instance; spans for each lifecycle
//                         state (loading/ready/draining) plus instant
//                         markers for scheduler transitions (Fig. 8).
//   process "slices"    — one track per MIG slice; "bound" spans with
//                         nested "busy" spans, so fragmentation (bound but
//                         idle) is visible at a glance.
//   process "gpus"      — repartition blackout spans (Repartition baseline).
//
// Subscribing the exporter never perturbs the run (the bus is synchronous
// and side-effect free); tests/harness_determinism_test.cc pins that.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace fluidfaas::sim {
class EventBus;
}

namespace fluidfaas::metrics {

class TraceExporter {
 public:
  TraceExporter() = default;

  /// Start observing a simulation. Idempotent for the same bus; attaching
  /// one exporter to two buses is an error.
  void SubscribeTo(sim::EventBus& bus);

  /// Optional: label request tracks with function names (index = fn id)
  /// instead of "fn<id>".
  void SetFunctionNames(std::vector<std::string> names);

  /// Emit the trace collected so far as Chrome Trace Event JSON. Spans
  /// still open (e.g. instances alive at the end of the run) are closed at
  /// the latest observed timestamp.
  void WriteJson(std::ostream& os) const;

  /// WriteJson to `path`; throws FfsError when the file cannot be opened.
  void WriteFile(const std::string& path) const;

 private:
  struct TraceEvent {
    std::string name;
    std::string cat;
    char ph = 'X';  // X = complete span, i = instant
    SimTime ts = 0;
    SimDuration dur = 0;      // X only
    int pid = 0;
    std::int64_t tid = 0;
    std::string args;  // pre-rendered JSON object, may be empty
  };

  struct OpenSpan {
    SimTime since = 0;
    std::string name;
  };
  /// A request span is named after its function when it closes.
  struct OpenRequest {
    SimTime since = 0;
    FunctionId fn;
  };

  std::string FunctionLabel(FunctionId fn) const;
  void Emit(TraceEvent ev);
  /// Close `rid`'s request span at `at`, named after its function plus
  /// `outcome`; `args` extends its {"rid":…} object. No-op if none is open.
  void CloseRequest(RequestId rid, SimTime at, const std::string& outcome,
                    const std::string& args);

  sim::EventBus* bus_ = nullptr;
  std::vector<std::string> function_names_;
  std::vector<TraceEvent> events_;
  SimTime last_ts_ = 0;

  // Open spans keyed by the owning entity, in id order, so the spans still
  // open at export are written in an order the run alone determines.
  std::map<RequestId, OpenRequest> open_requests_;
  std::map<InstanceId, OpenSpan> open_instance_states_;
  std::map<SliceId, OpenSpan> open_bound_;
  std::map<SliceId, OpenSpan> open_busy_;
};

}  // namespace fluidfaas::metrics
