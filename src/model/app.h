// Application DAGs (paper Table 4): a serverless ML function composed of DNN
// components with dataflow edges. This is the FFS DAG the programming layer
// registers (§5.2) — it describes computation *within* one serverless
// function, not relations among functions.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.h"
#include "model/component.h"

namespace fluidfaas::model {

/// Variant of an application — memory and batch scale (paper Table 5).
enum class Variant { kSmall = 0, kMedium = 1, kLarge = 2 };

const char* Name(Variant v);
inline constexpr std::array<Variant, 3> kAllVariants = {
    Variant::kSmall, Variant::kMedium, Variant::kLarge};

struct DagEdge {
  int from;  // component index; -1 denotes the function input
  int to;    // component index
};

/// The internal DAG of one application variant. Components are stored in a
/// topological order fixed at construction ("linearized order"); the
/// pipeline partitioner cuts this order into consecutive stages, mirroring
/// the dominator-based grouping of ESG that the paper extends (§5.2.2).
class AppDag {
 public:
  /// Empty DAG for deferred initialization (e.g. inside FunctionSpec);
  /// unusable until assigned from a real DAG.
  AppDag() = default;

  AppDag(std::string name, std::vector<ComponentSpec> components,
         std::vector<DagEdge> edges);

  const std::string& name() const { return name_; }
  const std::vector<ComponentSpec>& components() const { return components_; }
  const std::vector<DagEdge>& edges() const { return edges_; }
  int size() const { return static_cast<int>(components_.size()); }

  const ComponentSpec& component(int idx) const;

  /// Sum of per-component memory — what a monolithic (non-pipelined)
  /// deployment must fit on a single MIG slice.
  Bytes TotalMemory() const;

  /// Expected end-to-end compute latency when every component runs on a
  /// slice with `gpcs` GPCs (no inter-stage transfers).
  SimDuration TotalLatencyOnGpcs(int gpcs) const;

  /// Bytes flowing across the cut between linearized positions k-1 and k
  /// (i.e. from stage ending at k-1 into stage starting at k): the summed
  /// output tensors of components before the cut consumed at/after it.
  Bytes CutBytes(int k) const;

  /// Validates the stored order is topological; throws FfsError otherwise.
  void Validate() const;

 private:
  std::string name_;
  std::vector<ComponentSpec> components_;
  std::vector<DagEdge> edges_;
};

}  // namespace fluidfaas::model
