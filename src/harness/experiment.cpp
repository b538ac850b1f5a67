#include "harness/experiment.h"

#include <array>

#include "baselines/esg_platform.h"
#include "baselines/repartition_platform.h"
#include "common/error.h"
#include "core/ffs_distributed.h"
#include "core/ffs_platform.h"
#include "harness/run_context.h"
#include "platform/registry.h"

namespace fluidfaas::harness {

namespace {

struct SystemRow {
  SystemKind kind;
  const char* name;
  const char* cli_name;
  platform::PolicyBundle (*make)();
};

/// Every scheduler, in SystemKind order.
constexpr std::array<SystemRow, 5> kSystems = {{
    {SystemKind::kFluidFaas, "FluidFaaS", "fluidfaas",
     [] { return core::MakeFluidFaasBundle(); }},
    {SystemKind::kEsg, "ESG", "esg", &baselines::MakeEsgBundle},
    {SystemKind::kInfless, "INFless", "infless", &baselines::MakeInflessBundle},
    {SystemKind::kRepartition, "Repartition", "repartition",
     &baselines::MakeRepartitionBundle},
    {SystemKind::kFluidFaasDistributed, "FluidFaaS-dist", "distributed",
     [] { return core::MakeDistributedBundle(); }},
}};

static_assert([] {
  for (std::size_t i = 0; i < kSystems.size(); ++i) {
    if (static_cast<std::size_t>(kSystems[i].kind) != i) return false;
  }
  return true;
}());

const SystemRow& RowOf(SystemKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  FFS_CHECK_MSG(i < kSystems.size(), "unknown SystemKind");
  return kSystems[i];
}

}  // namespace

const char* Name(SystemKind kind) { return RowOf(kind).name; }

SystemKind ParseSystem(const std::string& cli_name) {
  for (const SystemRow& row : kSystems) {
    if (cli_name == row.cli_name) return row.kind;
  }
  throw FfsError("unknown system: " + cli_name);
}

platform::PolicyBundle MakeBundle(SystemKind kind) {
  return RowOf(kind).make();
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  RunContext ctx(config);
  return ctx.Run();
}

}  // namespace fluidfaas::harness

namespace fluidfaas::platform {

PolicyBundle MakeSchedulerBundle(const std::string& name) {
  for (const harness::SystemRow& row : harness::kSystems) {
    if (name == row.name) return row.make();
  }
  throw FfsError("unknown scheduler: " + name);
}

}  // namespace fluidfaas::platform
