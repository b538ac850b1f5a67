// Host-time spans for the benchmark's traced run.
//
// A Tracer records nested spans (layer, start, end, parent, optional request
// id) around calls the benchmark makes into the simulator's public seams.
// Every span adds its duration to its layer's inclusive total and to the
// enclosing span's child time, so a layer's self time is its duration minus
// the part its child spans cover. Spans are kept in memory, up to a cap,
// and written as one Chrome-trace JSON file when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer {
  kCell,         // one simulated run of one scheduler (root span)
  kSimRun,       // sim::Simulator::RunUntil
  kRoute,        // RoutingPolicy::Route
  kDrain,        // QueueDiscipline::Drain (one dispatch pass)
  kQueueOp,      // QueueDiscipline::Enqueue / Remove
  kAdmission,    // AdmissionController::AdmitAtSubmit / ReviewAtDispatch
  kTick,         // ScalingPolicy::Tick
  kKeepAlive,    // KeepAlivePolicy::Tick
  kOnCompleted,  // ScalingPolicy::OnCompleted
  kRetry,        // RetryPolicy::OnFailure
  kRecorder,     // metrics::Recorder bus handlers
  kSummary,      // Recorder::Close plus the summary getters
};
inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kSummary) + 1;

const char* Name(Layer layer);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  /// `epoch` is the zero of span timestamps; `span_cap` bounds how many
  /// spans are kept for the Chrome trace (totals are always exact).
  Tracer(Clock::time_point epoch, std::size_t span_cap);
  // Decorators and bus handlers hold references to a Tracer.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(Layer layer, std::int64_t rid = -1);
  void End();

  double inclusive_s(Layer layer) const;
  double self_s(Layer layer) const;

  struct Span {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;  // 0 for a root span
    std::int64_t rid;      // request id, -1 when the call has none
  };
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped_spans() const { return dropped_; }

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t id;
    std::int64_t rid;
  };
  struct Totals {
    std::int64_t inclusive_ns = 0;
    std::int64_t self_ns = 0;
  };

  std::int64_t NowNs() const;

  Clock::time_point epoch_;
  std::size_t span_cap_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::uint64_t next_id_ = 1;
  std::array<Totals, kNumLayers> totals_{};
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, Layer layer, std::int64_t rid = -1) : tracer_(tracer) {
    tracer_.Begin(layer, rid);
  }
  ~Scope() { tracer_.End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

/// One traced cell's spans, labelled for the Chrome-trace thread name.
struct SpanTrack {
  std::string label;
  std::vector<Tracer::Span> spans;
};

/// Write `tracks` as Chrome-trace JSON (one thread per track); false when
/// the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanTrack>& tracks);

}  // namespace perfbench
