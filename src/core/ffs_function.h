// The FluidFaaS programming model (paper §5.2, Fig. 7) in C++.
//
// In the paper, a developer wraps each DNN model in FluidFaaS.Module and
// registers models + dataflow in defDAG(); BUILDDAG mode then profiles each
// component per MIG size. Here the same roles exist:
//
//   FfsModule           — wraps one component (the nn.Module analog);
//                         reg() wires it into the DAG being built.
//   FfsFunctionBuilder  — the BUILDDAG-mode FFaaS object: collects
//                         registered modules and dataflow, and produces the
//                         immutable AppDag the invoker plans against.
//
// Example (examples/quickstart.cpp uses exactly this shape):
//
//   FfsFunctionBuilder b("my_fn");
//   auto x1 = preprocess.reg(b, {FfsFunctionBuilder::kInput});
//   auto x2 = backbone.reg(b, {x1});
//   auto x3 = head.reg(b, {x2});
//   AppDag dag = std::move(b).Build();
#pragma once

#include <string>
#include <vector>

#include "model/app.h"
#include "model/component.h"

namespace fluidfaas::core {

class FfsFunctionBuilder;

/// Handle to a registered module's output within the DAG being built.
struct FfsValue {
  int node = -1;
};

/// Wraps one DNN component. The performance numbers normally come from
/// BUILDDAG-mode profiling; in this reproduction they come from the model
/// zoo or from user-supplied specs.
class FfsModule {
 public:
  explicit FfsModule(model::ComponentSpec spec) : spec_(std::move(spec)) {}

  const model::ComponentSpec& spec() const { return spec_; }

  /// Register this module in `builder`, consuming the given inputs.
  /// Mirrors FluidFaaS.Module.reg() — returns the value handle fed to
  /// downstream modules.
  FfsValue reg(FfsFunctionBuilder& builder,
               const std::vector<FfsValue>& inputs,
               double exec_probability = 1.0) const;

 private:
  model::ComponentSpec spec_;
};

/// BUILDDAG-mode function object: accumulates registrations, emits the DAG.
class FfsFunctionBuilder {
 public:
  /// Sentinel value handle denoting the serverless function's own input.
  static const FfsValue kInput;

  explicit FfsFunctionBuilder(std::string name) : name_(std::move(name)) {}

  /// Low-level registration; FfsModule::reg is the ergonomic entry point.
  FfsValue Register(model::ComponentSpec spec,
                    const std::vector<FfsValue>& inputs);

  /// Finalize. The builder is consumed (registration order must be
  /// topological, which reg()'s value-handle flow guarantees by
  /// construction: a handle can only exist after its producer).
  model::AppDag Build() &&;

 private:
  std::string name_;
  std::vector<model::ComponentSpec> components_;
  std::vector<model::DagEdge> edges_;
};

}  // namespace fluidfaas::core
