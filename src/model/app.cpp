#include "model/app.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fluidfaas::model {

const char* Name(Variant v) {
  switch (v) {
    case Variant::kSmall:
      return "small";
    case Variant::kMedium:
      return "medium";
    case Variant::kLarge:
      return "large";
  }
  return "?";
}

AppDag::AppDag(std::string name, std::vector<ComponentSpec> components,
               std::vector<DagEdge> edges)
    : name_(std::move(name)),
      components_(std::move(components)),
      edges_(std::move(edges)) {
  Validate();
}

const ComponentSpec& AppDag::component(int idx) const {
  FFS_CHECK(idx >= 0 && idx < size());
  return components_[static_cast<std::size_t>(idx)];
}

Bytes AppDag::TotalMemory() const {
  Bytes total = 0;
  for (const auto& c : components_) total += c.MemoryRequired();
  return total;
}

SimDuration AppDag::TotalLatencyOnGpcs(int gpcs) const {
  SimDuration total = 0;
  for (const auto& c : components_) total += c.ExpectedLatencyOnGpcs(gpcs);
  return total;
}

Bytes AppDag::CutBytes(int k) const {
  FFS_CHECK(k >= 1 && k < size());
  Bytes bytes = 0;
  for (const DagEdge& e : edges_) {
    if (e.from >= 0 && e.from < k && e.to >= k) {
      bytes += components_[static_cast<std::size_t>(e.from)].output_bytes;
    }
  }
  // The function input itself may also be consumed past the cut (e.g. a
  // skip edge); charge nothing extra for it — it is staged once at launch.
  return bytes;
}

void AppDag::Validate() const {
  FFS_CHECK_MSG(!components_.empty(), "empty DAG");
  for (const DagEdge& e : edges_) {
    FFS_CHECK_MSG(e.to >= 0 && e.to < size(), "edge target out of range");
    FFS_CHECK_MSG(e.from >= -1 && e.from < size(), "edge source out of range");
    FFS_CHECK_MSG(e.from < e.to,
                  "stored component order must be topological (edge " +
                      std::to_string(e.from) + "->" + std::to_string(e.to) +
                      ")");
  }
  for (const auto& c : components_) {
    FFS_CHECK_MSG(c.MemoryRequired() > 0, "component with no memory demand");
    FFS_CHECK_MSG(c.latency_1gpc > 0, "component with no latency profile");
    FFS_CHECK(c.exec_probability > 0.0 && c.exec_probability <= 1.0);
    FFS_CHECK(c.serial_fraction >= 0.0 && c.serial_fraction <= 1.0);
  }
}

}  // namespace fluidfaas::model
