// JSON serialization of experiment results, for dashboards and scripted
// post-processing (`fluidfaas run --json out.json`).
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace fluidfaas::harness {

/// One result as a JSON object string (system, workload, headline metrics,
/// per-function SLO hit rates, and scheduler counters). Every metric is
/// read from `result.recorder`, which must be set (FfsError otherwise).
std::string ResultToJson(const ExperimentResult& result);

/// Several results as a JSON array.
std::string ResultsToJson(const std::vector<ExperimentResult>& results);

}  // namespace fluidfaas::harness
