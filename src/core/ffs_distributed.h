// Decentralized FluidFaaS: the paper's two-level architecture (Figs. 2/6).
//
// §5.2.2 places the pipeline-construction runtime *on each invoker*, "where
// it functions as a local scheduler ... This decentralized approach allows
// the scheduler to efficiently build pipelines and allocate resources,
// adapting to the invoker's current conditions", with the central
// controller left unmodified. The centralized FluidFaaS bundle models that
// logically (its planner already confines a pipeline to one node); this
// bundle models it *structurally*: one invoker per node, each running the
// stock FluidFaaS scheduling domain (core::FfsState) scoped to its node,
// with a front load balancer that picks an invoker per request and
// per-invoker autoscaling driven by each invoker's own observed arrivals.
//
// The bench `ablation_decentralized` compares the two: they should deliver
// similar quality on balanced clusters, with the decentralized form paying
// a small penalty when one node's fragments could have served another
// node's overflow.
#pragma once

#include <memory>
#include <vector>

#include "core/ffs_platform.h"
#include "platform/platform.h"
#include "platform/policy.h"

namespace fluidfaas::core {

/// State shared by DistRouting and DistScaling: one node-scoped FluidFaaS
/// domain per invoker, plus what the front tier adds on top of it.
class DistState {
 public:
  struct Arrivals {
    double ewma = 0.0;  // invoker-local rate estimate (req/s)
    int this_tick = 0;  // Route calls choosing this invoker first
  };
  struct Invoker {
    explicit Invoker(NodeId node) : domain(node) {}
    FfsState domain;                // the invoker-local scheduler
    std::vector<Arrivals> arrivals;  // per function
    std::size_t routed = 0;          // requests the load balancer sent here
  };

  void EnsureSized(const platform::PlatformCore& core);

  /// The FFS load balancer: pick the invoker for a request — the one whose
  /// instances of `fn` promise the earliest completion, else the one with
  /// the most free capacity.
  int ChooseInvoker(platform::PlatformCore& core, FunctionId fn, SimTime now);

  std::vector<Invoker> invokers;
};

class DistRouting final : public platform::RoutingPolicy {
 public:
  explicit DistRouting(std::shared_ptr<DistState> st) : st_(std::move(st)) {}
  void Attach(platform::PlatformCore& core) override;
  bool Route(platform::PlatformCore& core, RequestId rid,
             FunctionId fn) override;

 private:
  std::shared_ptr<DistState> st_;
};

class DistScaling final : public platform::ScalingPolicy {
 public:
  explicit DistScaling(std::shared_ptr<DistState> st) : st_(std::move(st)) {}
  void Attach(platform::PlatformCore& core) override;
  void Tick(platform::PlatformCore& core) override;
  void OnCompleted(platform::PlatformCore& core, RequestId rid,
                   FunctionId fn) override;

 private:
  std::shared_ptr<DistState> st_;
};

/// The decentralized FluidFaaS bundle ("FluidFaaS-dist"). Pass a state to
/// share it with the caller (introspection); defaults to a fresh one.
platform::PolicyBundle MakeDistributedBundle(
    std::shared_ptr<DistState> state = nullptr);

}  // namespace fluidfaas::core
