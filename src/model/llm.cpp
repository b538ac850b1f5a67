#include "model/llm.h"

#include "common/error.h"

namespace fluidfaas::model {
namespace {

// fp16 weights (2 bytes/param) split evenly over the layer groups, plus a
// KV-cache/activation budget per group sized for a modest serving batch.
// Group latencies aggregate a full generation (prompt + ~128 tokens) and
// scale well with GPCs (transformer GEMMs parallelize; small serial
// fraction).
const LlmSpec kSpecs[] = {
    {LlmSize::k7B, 7.0, 2, Millis(420), GiB(7.0), GiB(1.4)},
    {LlmSize::k13B, 13.0, 2, Millis(760), GiB(13.0), GiB(2.2)},
    // 34B: 4 x 19.85 GB groups (plus endpoints) exceed even 7g.80gb as a
    // monolith, yet each group fits a 2g.20gb fragment.
    {LlmSize::k34B, 34.0, 4, Millis(510), GiB(17.0), GiB(2.85)},
};

ComponentSpec Endpoint(ComponentClass cls, int index, SimDuration latency,
                       Bytes mem, Bytes out_bytes) {
  ComponentSpec c;
  c.id = ComponentId(index);
  c.name = Name(cls);
  c.cls = cls;
  c.weights = mem / 4;
  c.activations = mem - mem / 4;
  c.latency_1gpc = latency;
  c.serial_fraction = 0.6;  // token-level work, poorly parallelizable
  c.output_bytes = out_bytes;
  return c;
}

}  // namespace

const char* Name(LlmSize size) {
  switch (size) {
    case LlmSize::k7B:
      return "llm_7b";
    case LlmSize::k13B:
      return "llm_13b";
    case LlmSize::k34B:
      return "llm_34b";
  }
  return "?";
}

const LlmSpec& SpecFor(LlmSize size) {
  for (const LlmSpec& s : kSpecs) {
    if (s.size == size) return s;
  }
  throw FfsError("unknown LlmSize");
}

AppDag BuildLlmApp(LlmSize size) {
  const LlmSpec& spec = SpecFor(size);
  std::vector<ComponentSpec> comps;
  std::vector<DagEdge> edges;

  int idx = 0;
  comps.push_back(Endpoint(ComponentClass::kTokenizer, idx, Millis(6),
                           MiB(600), MiB(2)));
  edges.push_back({-1, idx});
  ++idx;

  for (int g = 0; g < spec.layer_groups; ++g) {
    ComponentSpec c;
    c.id = ComponentId(idx);
    c.name = std::string("transformer_layers_") + std::to_string(g);
    c.cls = ComponentClass::kTransformerLayers;
    c.weights = spec.group_weights;
    c.activations = spec.group_activations;
    c.latency_1gpc = spec.group_latency_1gpc;
    c.serial_fraction = 0.12;
    // Hidden-state hand-off between groups: batch x seq x hidden at fp16,
    // tens of MB — well inside the shared-memory transfer budget.
    c.output_bytes = MiB(24);
    edges.push_back({idx - 1, idx});
    comps.push_back(std::move(c));
    ++idx;
  }

  comps.push_back(Endpoint(ComponentClass::kDetokenizer, idx, Millis(9),
                           MiB(400), MiB(1)));
  edges.push_back({idx - 1, idx});

  return AppDag(std::string(Name(size)), std::move(comps), std::move(edges));
}

}  // namespace fluidfaas::model
