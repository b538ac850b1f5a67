#include "model/zoo.h"

#include <array>
#include <cmath>

#include "common/error.h"

namespace fluidfaas::model {
namespace {

// Base profiles at the small variant. Memory figures are GPU-resident
// totals (weights + activations at the small batch size); latencies are
// single-GPC numbers in the range published for these models on datacenter
// GPUs. See zoo.h for the calibration contract.
const std::array<ComponentBase, 6> kBases = {{
    {ComponentClass::kSuperResolution, GiB(1.1), GiB(1.9), Millis(180), 0.08,
     MiB(48)},
    {ComponentClass::kSegmentation, GiB(0.9), GiB(1.6), Millis(95), 0.10,
     MiB(16)},
    {ComponentClass::kClassification, GiB(0.6), GiB(0.9), Millis(28), 0.15,
     MiB(0.25)},
    {ComponentClass::kDeblur, GiB(1.2), GiB(2.0), Millis(140), 0.08, MiB(24)},
    {ComponentClass::kDepthEstimation, GiB(0.9), GiB(1.3), Millis(85), 0.12,
     MiB(8)},
    {ComponentClass::kBackgroundRemoval, GiB(1.0), GiB(1.6), Millis(120),
     0.10, MiB(24)},
}};

// Per-app variant scaling, tuned so monolithic totals and per-component
// maxima land in the Table 5 memory brackets (asserted in tests):
//   apps 0-2: small<=10GB, medium in (10,20], large in (20,40] monolithic;
//             per-component max <=10GB (medium), (10,20] (large).
//   app 3:    small in (10,20], medium in (20,40] monolithic with all
//             components <=10GB; large exceeds every profile -> excluded.
constexpr VariantScale kScales[kNumApps][3] = {
    /* App 0 */ {{1.0, 1.0}, {2.3, 2.4}, {4.6, 6.0}},
    /* App 1 */ {{1.0, 1.0}, {2.2, 2.4}, {4.4, 6.0}},
    /* App 2 */ {{1.0, 1.0}, {2.1, 2.3}, {4.2, 5.8}},
    /* App 3 */ {{1.0, 1.0}, {2.5, 2.6}, {6.3, 8.0}},
};

Bytes ScaleBytes(Bytes b, double s) {
  return static_cast<Bytes>(std::llround(static_cast<double>(b) * s));
}

}  // namespace

const char* AppName(int app_index) {
  switch (app_index) {
    case 0:
      return "image_classification";
    case 1:
      return "depth_recognition";
    case 2:
      return "background_elimination";
    case 3:
      return "expanded_image_classification";
    default:
      throw FfsError("app index out of range: " + std::to_string(app_index));
  }
}

const ComponentBase& BaseProfile(ComponentClass cls) {
  for (const auto& b : kBases) {
    if (b.cls == cls) return b;
  }
  throw FfsError("unknown component class");
}

VariantScale ScaleFor(int app_index, Variant v) {
  FFS_CHECK(app_index >= 0 && app_index < kNumApps);
  return kScales[app_index][static_cast<int>(v)];
}

ComponentSpec MakeComponent(ComponentClass cls, const VariantScale& scale,
                            int index, double exec_probability) {
  const ComponentBase& base = BaseProfile(cls);
  ComponentSpec c;
  c.id = ComponentId(index);
  c.name = Name(cls);
  c.cls = cls;
  c.weights = ScaleBytes(base.weights, scale.memory);
  c.activations = ScaleBytes(base.activations, scale.memory);
  c.latency_1gpc = static_cast<SimDuration>(
      std::llround(static_cast<double>(base.latency_1gpc) * scale.latency));
  c.serial_fraction = base.serial_fraction;
  c.exec_probability = exec_probability;
  c.output_bytes = ScaleBytes(base.output_bytes, scale.memory);
  return c;
}

AppDag BuildApp(int app_index, Variant v) {
  const VariantScale s = ScaleFor(app_index, v);
  const std::string dag_name =
      std::string(AppName(app_index)) + "/" + Name(v);
  using CC = ComponentClass;
  switch (app_index) {
    case 0:
      return AppDag(dag_name,
                    {MakeComponent(CC::kSuperResolution, s, 0),
                     MakeComponent(CC::kSegmentation, s, 1),
                     MakeComponent(CC::kClassification, s, 2)},
                    {{-1, 0}, {0, 1}, {1, 2}});
    case 1:
      return AppDag(dag_name,
                    {MakeComponent(CC::kDeblur, s, 0),
                     MakeComponent(CC::kSuperResolution, s, 1),
                     MakeComponent(CC::kDepthEstimation, s, 2)},
                    {{-1, 0}, {0, 1}, {1, 2}});
    case 2:
      return AppDag(dag_name,
                    {MakeComponent(CC::kSuperResolution, s, 0),
                     MakeComponent(CC::kDeblur, s, 1),
                     MakeComponent(CC::kBackgroundRemoval, s, 2)},
                    {{-1, 0}, {0, 1}, {1, 2}});
    case 3:
      // Deblur -> (low resolution? SuperResolution : pass) -> BGRemoval ->
      // Segmentation -> Classification. The conditional arm executes for
      // half the requests; the bypass is the 0->2 edge.
      return AppDag(
          dag_name,
          {MakeComponent(CC::kDeblur, s, 0),
           MakeComponent(CC::kSuperResolution, s, 1,
                         /*exec_probability=*/0.5),
           MakeComponent(CC::kBackgroundRemoval, s, 2),
           MakeComponent(CC::kSegmentation, s, 3),
           MakeComponent(CC::kClassification, s, 4)},
          {{-1, 0}, {0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
    default:
      throw FfsError("app index out of range");
  }
}

bool IncludedInStudy(int app_index, Variant v) {
  return !(app_index == 3 && v == Variant::kLarge);
}

std::vector<AppDag> BuildStudyApps(Variant v) {
  std::vector<AppDag> apps;
  for (int a = 0; a < kNumApps; ++a) {
    if (IncludedInStudy(a, v)) apps.push_back(BuildApp(a, v));
  }
  return apps;
}

}  // namespace fluidfaas::model
