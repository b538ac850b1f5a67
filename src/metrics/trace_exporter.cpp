#include "metrics/trace_exporter.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "sim/event_bus.h"
#include "sim/events.h"

namespace fluidfaas::metrics {

namespace {

constexpr int kPidRequests = 1;
constexpr int kPidInstances = 2;
constexpr int kPidSlices = 3;
constexpr int kPidGpus = 4;
constexpr int kPidPlanner = 5;
constexpr int kPidQueue = 6;

}  // namespace

std::string TraceExporter::FunctionLabel(FunctionId fn) const {
  const auto idx = static_cast<std::size_t>(fn.value);
  if (fn.valid() && idx < function_names_.size()) return function_names_[idx];
  return "fn" + std::to_string(fn.value);
}

void TraceExporter::SetFunctionNames(std::vector<std::string> names) {
  function_names_ = std::move(names);
}

void TraceExporter::Emit(TraceEvent ev) {
  last_ts_ = std::max(last_ts_, ev.ts + std::max<SimDuration>(ev.dur, 0));
  events_.push_back(std::move(ev));
}

void TraceExporter::CloseRequest(RequestId rid, SimTime at,
                                 const std::string& outcome,
                                 const std::string& args) {
  auto it = open_requests_.find(rid);
  if (it == open_requests_.end()) return;
  const OpenRequest& span = it->second;
  Emit(TraceEvent{FunctionLabel(span.fn) + outcome, "request", 'X',
                  span.since, at - span.since, kPidRequests, span.fn.value,
                  "{\"rid\":" + std::to_string(rid.value) + args + "}"});
  open_requests_.erase(it);
}

void TraceExporter::SubscribeTo(sim::EventBus& bus) {
  if (bus_ == &bus) return;
  FFS_CHECK_MSG(bus_ == nullptr, "TraceExporter already subscribed to a bus");
  bus_ = &bus;

  bus.Subscribe<sim::RequestSubmitted>([this](const sim::RequestSubmitted& e) {
    open_requests_[e.rid] = OpenRequest{e.at, e.fn};
    last_ts_ = std::max(last_ts_, e.at);
  });
  bus.Subscribe<sim::RequestCompleted>([this](const sim::RequestCompleted& e) {
    CloseRequest(e.rid, e.at, "", "");
  });

  bus.Subscribe<sim::InstanceStateChanged>(
      [this](const sim::InstanceStateChanged& e) {
        auto it = open_instance_states_.find(e.iid);
        if (it != open_instance_states_.end()) {
          Emit(TraceEvent{it->second.name, "instance", 'X', it->second.since,
                          e.at - it->second.since, kPidInstances, e.iid.value,
                          "{\"fn\":" + std::to_string(e.fn.value) + "}"});
        }
        if (sim::Terminal(e.to)) {
          open_instance_states_.erase(e.iid);
        } else {
          open_instance_states_[e.iid] = OpenSpan{e.at, Name(e.to)};
        }
      });
  bus.Subscribe<sim::SchedulerTransition>(
      [this](const sim::SchedulerTransition& e) {
        Emit(TraceEvent{Name(e.kind), "transition", 'i', e.at, 0,
                        kPidInstances, e.iid.valid() ? e.iid.value : -1,
                        "{\"fn\":" + std::to_string(e.fn.value) + "}"});
      });

  bus.Subscribe<sim::SliceBound>([this](const sim::SliceBound& e) {
    open_bound_[e.slice] =
        OpenSpan{e.at, "bound i" + std::to_string(e.iid.value)};
    last_ts_ = std::max(last_ts_, e.at);
  });
  bus.Subscribe<sim::SliceReleased>([this](const sim::SliceReleased& e) {
    auto it = open_bound_.find(e.slice);
    if (it == open_bound_.end()) return;
    Emit(TraceEvent{it->second.name, "slice", 'X', it->second.since,
                    e.at - it->second.since, kPidSlices, e.slice.value, ""});
    open_bound_.erase(it);
  });
  bus.Subscribe<sim::SliceBusyBegin>([this](const sim::SliceBusyBegin& e) {
    open_busy_[e.slice] = OpenSpan{e.at, "busy"};
    last_ts_ = std::max(last_ts_, e.at);
  });
  bus.Subscribe<sim::SliceBusyEnd>([this](const sim::SliceBusyEnd& e) {
    auto it = open_busy_.find(e.slice);
    if (it == open_busy_.end()) return;
    Emit(TraceEvent{it->second.name, "slice", 'X', it->second.since,
                    e.at - it->second.since, kPidSlices, e.slice.value, ""});
    open_busy_.erase(it);
  });

  bus.Subscribe<sim::PartitionReconfigured>(
      [this](const sim::PartitionReconfigured& e) {
        Emit(TraceEvent{"repartition " + e.partition, "gpu", 'X', e.at,
                        e.blackout, kPidGpus, e.gpu.value, ""});
      });

  // Placement transactions (DESIGN.md §8): one instant marker per commit
  // attempt on the planner track, committed and aborted on separate rows.
  bus.Subscribe<sim::PlacementCommitted>(
      [this](const sim::PlacementCommitted& e) {
        Emit(TraceEvent{"commit", "plan", 'i', e.at, 0, kPidPlanner, 0,
                        "{\"actions\":" + std::to_string(e.actions) +
                            ",\"spawns\":" + std::to_string(e.spawns) + "}"});
      });
  bus.Subscribe<sim::PlacementAborted>([this](const sim::PlacementAborted& e) {
    Emit(TraceEvent{std::string("abort: ") + Name(e.cause), "plan", 'i',
                    e.at, 0, kPidPlanner, 1,
                    "{\"actions\":" + std::to_string(e.actions) + "}"});
  });

  // Fault & recovery markers.
  bus.Subscribe<sim::InstanceFailed>([this](const sim::InstanceFailed& e) {
    Emit(TraceEvent{std::string("failed: ") + Name(e.cause), "fault", 'i',
                    e.at, 0, kPidInstances, e.iid.value,
                    "{\"fn\":" + std::to_string(e.fn.value) + "}"});
  });
  bus.Subscribe<sim::SliceFailed>([this](const sim::SliceFailed& e) {
    Emit(TraceEvent{"slice failed", "fault", 'X', e.at, e.repair, kPidSlices,
                    e.slice.value, ""});
  });
  bus.Subscribe<sim::SliceRepaired>([this](const sim::SliceRepaired& e) {
    Emit(TraceEvent{"repaired", "fault", 'i', e.at, 0, kPidSlices,
                    e.slice.value, ""});
  });
  bus.Subscribe<sim::RequestRetried>([this](const sim::RequestRetried& e) {
    Emit(TraceEvent{e.resume ? "retry (resume)" : "retry", "fault", 'i',
                    e.at, 0, kPidRequests, e.fn.value,
                    "{\"rid\":" + std::to_string(e.rid.value) +
                        ",\"attempt\":" + std::to_string(e.attempt) + "}"});
  });
  // Terminal request outcomes close the request span like a completion.
  bus.Subscribe<sim::RequestTimedOut>([this](const sim::RequestTimedOut& e) {
    if (e.mid_execution) return;  // span closes at its real completion
    CloseRequest(e.rid, e.at, " (timeout)", "");
  });
  bus.Subscribe<sim::RequestAbandoned>(
      [this](const sim::RequestAbandoned& e) {
        CloseRequest(e.rid, e.at, " (abandoned)",
                     ",\"attempts\":" + std::to_string(e.attempts));
      });

  // QoS (DESIGN.md §9): admission rejections close the request span and
  // drop an instant marker; pending-queue depth renders as a counter track.
  bus.Subscribe<sim::RequestRejected>([this](const sim::RequestRejected& e) {
    Emit(TraceEvent{std::string("reject: ") + Name(e.cause), "qos", 'i',
                    e.at, 0, kPidQueue, 1,
                    "{\"rid\":" + std::to_string(e.rid.value) +
                        ",\"fn\":" + std::to_string(e.fn.value) + "}"});
    CloseRequest(e.rid, e.at, " (rejected)",
                 ",\"cause\":\"" + std::string(Name(e.cause)) + "\"");
  });
  bus.Subscribe<sim::PendingDepthChanged>(
      [this](const sim::PendingDepthChanged& e) {
        Emit(TraceEvent{"pending depth", "qos", 'C', e.at, 0, kPidQueue, 0,
                        "{\"depth\":" + std::to_string(e.depth) + "}"});
      });
}

void TraceExporter::WriteJson(std::ostream& os) const {
  auto write_event = [&os](const TraceEvent& ev, bool first) {
    if (!first) os << ",\n";
    std::string name;
    AppendJsonEscaped(name, ev.name);
    os << "{\"name\":\"" << name << "\",\"cat\":\"" << ev.cat
       << "\",\"ph\":\"" << ev.ph << "\",\"ts\":" << ev.ts;
    if (ev.ph == 'X') os << ",\"dur\":" << ev.dur;
    if (ev.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
    if (!ev.args.empty()) os << ",\"args\":" << ev.args;
    os << "}";
  };

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // Metadata: name the processes so the viewer's track groups read well.
  const std::pair<int, const char*> procs[] = {{kPidRequests, "requests"},
                                               {kPidInstances, "instances"},
                                               {kPidSlices, "slices"},
                                               {kPidGpus, "gpus"},
                                               {kPidPlanner, "planner"},
                                               {kPidQueue, "queue"}};
  for (const auto& [pid, label] : procs) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":\"" << label << "\"}}";
  }
  for (const TraceEvent& ev : events_) {
    write_event(ev, first);
    first = false;
  }
  // Close spans still open at export time at the last observed timestamp,
  // so a truncated run still renders every live entity.
  for (const auto& [rid, span] : open_requests_) {
    write_event(TraceEvent{FunctionLabel(span.fn), "request", 'X', span.since,
                           std::max<SimDuration>(0, last_ts_ - span.since),
                           kPidRequests, span.fn.value,
                           "{\"rid\":" + std::to_string(rid.value) +
                               ",\"open\":true}"},
                first);
    first = false;
  }
  const auto write_open = [&](const auto& spans, const char* cat, int pid) {
    for (const auto& [id, span] : spans) {
      write_event(TraceEvent{span.name, cat, 'X', span.since,
                             std::max<SimDuration>(0, last_ts_ - span.since),
                             pid, id.value, ""},
                  first);
      first = false;
    }
  };
  write_open(open_instance_states_, "instance", kPidInstances);
  write_open(open_bound_, "slice", kPidSlices);
  write_open(open_busy_, "slice", kPidSlices);
  os << "\n]}\n";
}

void TraceExporter::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw FfsError("cannot open trace output file: " + path);
  WriteJson(out);
}

}  // namespace fluidfaas::metrics
