#include "harness/experiment.h"

#include "harness/run_context.h"
#include "harness/sweep.h"

namespace fluidfaas::harness {

const char* Name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kFluidFaas:
      return "FluidFaaS";
    case SystemKind::kEsg:
      return "ESG";
    case SystemKind::kInfless:
      return "INFless";
    case SystemKind::kRepartition:
      return "Repartition";
    case SystemKind::kFluidFaasDistributed:
      return "FluidFaaS-dist";
  }
  return "?";
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  RunContext ctx(config);
  return ctx.Run();
}

std::vector<ExperimentResult> RunComparison(ExperimentConfig config,
                                            int jobs) {
  std::vector<ExperimentConfig> cells;
  for (SystemKind kind :
       {SystemKind::kInfless, SystemKind::kEsg, SystemKind::kFluidFaas}) {
    config.system = kind;
    cells.push_back(config);
  }
  return RunConfigs(cells, jobs);
}

}  // namespace fluidfaas::harness
