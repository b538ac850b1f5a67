#include "model/synthetic.h"

#include "common/error.h"

namespace fluidfaas::model {

AppDag SyntheticApp(const SyntheticAppParams& p, Rng& rng) {
  FFS_CHECK(p.components >= 1);
  FFS_CHECK(p.min_memory > 0 && p.min_memory <= p.max_memory);
  FFS_CHECK(p.min_latency > 0 && p.min_latency <= p.max_latency);

  std::vector<ComponentSpec> comps;
  std::vector<DagEdge> edges;
  for (int i = 0; i < p.components; ++i) {
    ComponentSpec c;
    c.id = ComponentId(i);
    c.name = "synthetic_" + std::to_string(i);
    c.cls = ComponentClass::kClassification;
    const Bytes mem = rng.UniformInt(p.min_memory, p.max_memory);
    c.weights = mem / 2;
    c.activations = mem - mem / 2;
    c.latency_1gpc = rng.UniformInt(p.min_latency, p.max_latency);
    c.serial_fraction = rng.Uniform(0.02, 0.25);
    if (i > 0 && rng.Chance(p.branch_probability)) {
      c.exec_probability = 0.5;
    }
    c.output_bytes = rng.UniformInt(MiB(1), MiB(64));
    comps.push_back(std::move(c));
    edges.push_back({i - 1, i});
  }
  // Optional forward skip edges (keep the stored order topological).
  for (int i = 0; i < p.components; ++i) {
    for (int j = i + 2; j < p.components; ++j) {
      if (rng.Chance(p.skip_edge_probability)) edges.push_back({i, j});
    }
  }
  return AppDag("synthetic", std::move(comps), std::move(edges));
}

}  // namespace fluidfaas::model
