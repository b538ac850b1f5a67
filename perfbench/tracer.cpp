#include "tracer.h"

#include <fstream>
#include <iomanip>

#include "common/error.h"

namespace perfbench {

const char* Name(Layer layer) {
  switch (layer) {
    case Layer::kCell:
      return "cell";
    case Layer::kSimRun:
      return "sim.run";
    case Layer::kRoute:
      return "route";
    case Layer::kDrain:
      return "qos.drain";
    case Layer::kQueueOp:
      return "qos.queue_op";
    case Layer::kAdmission:
      return "qos.admission";
    case Layer::kTick:
      return "scaling.tick";
    case Layer::kKeepAlive:
      return "keepalive.tick";
    case Layer::kOnCompleted:
      return "scaling.on_completed";
    case Layer::kRetry:
      return "retry";
    case Layer::kRecorder:
      return "metrics.recorder";
    case Layer::kSummary:
      return "metrics.summary";
  }
  return "?";
}

Tracer::Tracer(Clock::time_point epoch, std::size_t span_cap)
    : epoch_(epoch), span_cap_(span_cap) {
  stack_.reserve(16);
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::Begin(Layer layer, std::int64_t rid) {
  stack_.push_back(Open{layer, NowNs(), 0, next_id_++, rid});
}

void Tracer::End() {
  FFS_CHECK_MSG(!stack_.empty(), "span End() without Begin()");
  const std::int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - open.start_ns;
  Totals& t = totals_[static_cast<std::size_t>(open.layer)];
  t.inclusive_ns += dur;
  t.self_ns += dur - open.child_ns;
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (spans_.size() < span_cap_) {
    spans_.push_back(Span{open.layer, open.start_ns, end, open.id, parent,
                          open.rid});
  } else {
    ++dropped_;
  }
}

double Tracer::inclusive_s(Layer layer) const {
  return static_cast<double>(
             totals_[static_cast<std::size_t>(layer)].inclusive_ns) *
         1e-9;
}

double Tracer::self_s(Layer layer) const {
  return static_cast<double>(totals_[static_cast<std::size_t>(layer)].self_ns) *
         1e-9;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanTrack>& tracks) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);  // µs timestamps, ns precision
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (std::size_t tid = 0; tid < tracks.size(); ++tid) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << tracks[tid].label << "\"}}";
    for (const Tracer::Span& s : tracks[tid].spans) {
      sep();
      // Chrome-trace timestamps are microseconds; keep ns precision.
      out << "{\"name\":\"" << Name(s.layer) << "\",\"cat\":\""
          << Name(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
      if (s.rid >= 0) out << ",\"rid\":" << s.rid;
      out << "}}";
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
