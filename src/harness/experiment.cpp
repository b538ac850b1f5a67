#include "harness/experiment.h"

#include "harness/run_context.h"

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

}  // namespace fluidfaas::harness
