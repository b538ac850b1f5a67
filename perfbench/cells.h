// One cell of the benchmark: one simulated run of one scheduler on one
// input, untraced (through harness::RunContext) or traced (built from the
// same public pieces, with timing decorators around every policy seam).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "metrics/recorder.h"
#include "sim/events.h"
#include "tracer.h"

namespace perfbench {

/// Output checks and digest of one cell's per-request records.
struct RecordCheck {
  std::uint64_t digest = 0;
  std::size_t records = 0;
  std::size_t slo_hits = 0;  // completed within the SLO deadline
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t timed_out = 0;
  std::size_t abandoned = 0;
  std::size_t unfinished = 0;  // still outstanding at the drain cap
  std::string error;           // empty when every check passed
};

/// Digest the closed recorder's records (arrival, completion, deadline,
/// phase times, retries, reject cause) and check that there is one record
/// per invocation and every request is in exactly one state: completed,
/// rejected, timed out, abandoned, or unfinished at the drain cap.
RecordCheck CheckRecords(const fluidfaas::metrics::Recorder& rec,
                         std::size_t invocations);

// Every host time a cell reports is calibrated: multiplied by the speed
// factor of a fixed kernel timed around (and, untraced, during) the cell.
// See "Calibrated host times" in perfbench/README.md.

struct UntracedCell {
  double setup_s = 0.0;  // the RunContext constructor
  double wall_s = 0.0;   // RunContext::Run
  std::uint64_t events = 0;
  std::uint64_t publishes = 0;
  RecordCheck check;
};

UntracedCell RunUntraced(const fluidfaas::harness::ExperimentConfig& config);

/// Calls counted by the timing decorators.
struct LayerCounts {
  std::uint64_t route_calls = 0;
  std::uint64_t route_placed = 0;
  std::uint64_t drain_calls = 0;
  std::uint64_t offers = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t removes = 0;
};

/// Counted from EventBus subscriptions.
struct BusCounts {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t spawns = 0;
  std::uint64_t retries = 0;
  std::uint64_t instances_failed = 0;
  std::uint64_t slice_binds = 0;
  std::uint64_t slices_failed = 0;
  std::uint64_t slice_repairs = 0;
  std::uint64_t transitions = 0;
  std::uint64_t repartitions = 0;
  std::array<std::uint64_t, fluidfaas::sim::kNumRejectCauses> rejected{};
  std::int64_t queue_us = 0;  // modelled queueing, summed over requests
  std::int64_t load_us = 0;   // modelled loading, summed over requests
  std::size_t max_depth = 0;  // largest published pending depth
};

/// The counters that must repeat exactly between two traced runs.
struct ExactCounters {
  std::uint64_t events = 0;
  std::uint64_t publishes = 0;
  std::uint64_t route_calls = 0;
  std::uint64_t drain_calls = 0;
  std::uint64_t commits = 0;
  std::uint64_t rejections = 0;
  bool operator==(const ExactCounters&) const = default;
};

struct TracedCell {
  double setup_s = 0.0;
  double synth_s = 0.0;  // trace::MakeWorkload
  double build_s = 0.0;  // PlatformCore construction
  double wall_s = 0.0;   // the RunContext::Run-equivalent part
  std::size_t invocations = 0;
  std::uint64_t events = 0;
  std::uint64_t publishes = 0;
  LayerCounts layer;
  BusCounts bus;
  std::array<double, kNumLayers> inclusive_s{};
  std::array<double, kNumLayers> self_s{};
  double mean_depth = 0.0;
  std::vector<double> latencies_s;  // completed requests
  RecordCheck check;
  std::vector<Tracer::Span> spans;
  std::size_t dropped_spans = 0;

  ExactCounters exact() const;
};

/// One traced cell; keeps at most `span_cap` spans for the Chrome trace.
TracedCell RunTraced(const fluidfaas::harness::ExperimentConfig& config,
                     Clock::time_point epoch, std::size_t span_cap);

}  // namespace perfbench
