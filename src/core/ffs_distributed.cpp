#include "core/ffs_distributed.h"

#include <utility>

namespace fluidfaas::core {

using platform::Instance;

void DistState::EnsureSized(const platform::PlatformCore& core) {
  if (!invokers.empty()) return;
  for (int n = 0; n < core.cluster().num_nodes(); ++n) {
    Invoker& inv = invokers.emplace_back(NodeId(n));
    inv.domain.EnsureSized(core);
    inv.arrivals.resize(core.functions().size());
  }
}

int DistState::ChooseInvoker(platform::PlatformCore& core, FunctionId fn,
                             SimTime now) {
  // Prefer the invoker whose admitting instances of `fn` promise the
  // earliest completion (request affinity keeps models warm). An invoker
  // whose least-loaded exclusive-hot instance ties the best estimate so far
  // takes the pick, so such ties go to the last invoker scanned; a
  // time-sharing instance has to beat it strictly. Neither pick reads a
  // dead or draining entry, so the lists need no prune here.
  int best = -1;
  SimTime best_est = kTimeInfinity;
  for (std::size_t i = 0; i < invokers.size(); ++i) {
    const FfsState::FnState& st = invokers[i].domain.state(fn);
    // Most invokers hold no instance of `fn`: skip the call.
    if (const Instance* least =
            st.eh.empty() ? nullptr : st.eh.LeastLoaded(now)) {
      const SimTime est = least->EstimateCompletion(now);
      if (est <= best_est) {
        best_est = est;
        best = static_cast<int>(i);
      }
    }
    if (st.ts != nullptr && st.ts->CanAdmit()) {
      const SimTime est = st.ts->EstimateCompletion(now);
      if (est < best_est) {
        best_est = est;
        best = static_cast<int>(i);
      }
    }
  }
  if (best >= 0) return best;

  // No admitting instance anywhere: the invoker with the most free GPCs,
  // the lowest index on a tie.
  const gpu::ClusterView view(core.cluster());
  int most_free = 0;
  int free_gpcs = -1;
  for (std::size_t i = 0; i < invokers.size(); ++i) {
    int g = 0;
    for (SliceId sid : view.FreeSlicesOnNode(*invokers[i].domain.node())) {
      g += view.slice(sid).gpcs();
    }
    if (g > free_gpcs) {
      free_gpcs = g;
      most_free = static_cast<int>(i);
    }
  }
  return most_free;
}

void DistRouting::Attach(platform::PlatformCore& core) {
  st_->EnsureSized(core);
}

bool DistRouting::Route(platform::PlatformCore& core, RequestId rid,
                        FunctionId fn) {
  const std::size_t f = static_cast<std::size_t>(fn.value);
  const int chosen = st_->ChooseInvoker(core, fn, core.simulator().Now());
  DistState::Invoker& inv = st_->invokers[static_cast<std::size_t>(chosen)];
  inv.arrivals[f].this_tick += 1;
  if (inv.domain.Route(core, rid, fn)) {
    inv.routed += 1;
    return true;
  }
  // Spillover: any other invoker that will take it.
  for (std::size_t i = 0; i < st_->invokers.size(); ++i) {
    if (static_cast<int>(i) == chosen) continue;
    DistState::Invoker& other = st_->invokers[i];
    if (other.domain.Route(core, rid, fn)) {
      other.routed += 1;
      return true;
    }
  }
  // Every call counts toward an invoker's arrivals, so a skipped call would
  // change the scaling: withdraw the reach the domains reported.
  core.RefuseThrough(platform::kNoReach);
  return false;
}

void DistScaling::Attach(platform::PlatformCore& core) {
  st_->EnsureSized(core);
}

void DistScaling::OnCompleted(platform::PlatformCore& core, RequestId,
                              FunctionId fn) {
  // A completion refreshes fn's time-sharing entry on every invoker, not
  // only on the one that served it.
  const SimTime now = core.simulator().Now();
  for (DistState::Invoker& inv : st_->invokers) {
    inv.domain.state(fn).ts_last_used = now;
  }
}

void DistScaling::Tick(platform::PlatformCore& core) {
  const double period_s = ToSeconds(platform::kAutoscalePeriod);

  for (DistState::Invoker& inv : st_->invokers) {
    FfsState& domain = inv.domain;
    for (std::size_t f = 0; f < domain.fn_state.size(); ++f) {
      const FunctionId fn(static_cast<std::int32_t>(f));
      FfsState::PruneDead(domain.state(fn));

      // Difference 1: scale-up follows the invoker-local arrival EWMA, not
      // the core's global rate. `this_tick` counts the Route calls whose
      // first-choice invoker was this one: every arrival, plus each
      // pending re-offer that reached Route. Re-offers a dispatch pass
      // answers from its refusal bar (PlatformCore::DispatchPending) make
      // no call and so are not counted.
      DistState::Arrivals& a = inv.arrivals[f];
      a.ewma = 0.5 * a.ewma + 0.5 * (a.this_tick / period_s);
      if (a.ewma < 1e-6) a.ewma = 0.0;
      a.this_tick = 0;

      domain.Promote(core, fn);
      domain.ScaleUp(core, core.function(fn), a.ewma);
      domain.ScaleDown(core, fn);
      domain.ExpireCold(core, fn);
      // Difference 2: no pipeline migration, so no instance ever drains.
    }
  }
}

platform::PolicyBundle MakeDistributedBundle(std::shared_ptr<DistState> state) {
  if (!state) state = std::make_shared<DistState>();
  platform::PolicyBundle bundle;
  bundle.routing = std::make_unique<DistRouting>(state);
  bundle.scaling = std::make_unique<DistScaling>(state);
  return bundle;
}

}  // namespace fluidfaas::core
