// Data-movement and model-loading costs.
//
// MIG's strong isolation means two pipeline stages on different slices
// cannot exchange tensors in GPU memory: the producer copies device→host
// into shared memory and the consumer copies host→device (paper §5.2,
// overhead measured at 10–40 ms per hop in §7.3). Model (re)loading costs
// depend on where the weights live: MIG memory (hot), CPU memory (warm), or
// remote storage (cold) — the three keep-alive tiers of §5.3. The constants
// describe the paper's one A100/PCIe testbed.
#pragma once

#include <cmath>

#include "common/types.h"

namespace fluidfaas::model {

/// Fixed per-hop overhead: queue hand-off, process wake-up, pinned-buffer
/// bookkeeping.
inline constexpr SimDuration kHopFixed = Millis(6);
/// Effective PCIe bandwidth for one direction (GB/s). The tensor crosses
/// the bus twice (D2H then H2D).
inline constexpr double kPcieGbps = 20.0;

/// CUDA context/runtime initialization when a process first touches the
/// slice (paid on cold start and on re-binding after full eviction).
inline constexpr SimDuration kRuntimeInit = Millis(250);
/// Host-to-device weight copy bandwidth (GB/s) — warm start path.
inline constexpr double kH2dGbps = 16.0;
/// Remote-storage fetch bandwidth (GB/s) — cold start path.
inline constexpr double kRemoteGbps = 1.2;
/// Container / sandbox startup for a cold function instance.
inline constexpr SimDuration kContainerStart = Seconds(4.0);

/// Cost of moving a tensor between two pipeline stages on distinct MIG
/// slices, via host shared memory.
inline SimDuration HopCost(Bytes tensor_bytes) {
  const double secs =
      2.0 * static_cast<double>(tensor_bytes) / (kPcieGbps * 1e9);
  return kHopFixed + static_cast<SimDuration>(std::llround(secs * 1e6));
}

/// Warm start: weights already in CPU memory, copy to the slice.
inline SimDuration WarmLoad(Bytes weights) {
  const double secs = static_cast<double>(weights) / (kH2dGbps * 1e9);
  return kRuntimeInit + static_cast<SimDuration>(std::llround(secs * 1e6));
}

/// Cold start: start the container, fetch weights remotely, then load.
inline SimDuration ColdLoad(Bytes weights) {
  const double fetch_secs = static_cast<double>(weights) / (kRemoteGbps * 1e9);
  return kContainerStart +
         static_cast<SimDuration>(std::llround(fetch_secs * 1e6)) +
         WarmLoad(weights);
}

/// Eviction: device-to-host copy of the weights (checkpoint to CPU).
inline SimDuration Evict(Bytes weights) {
  const double secs = static_cast<double>(weights) / (kH2dGbps * 1e9);
  return static_cast<SimDuration>(std::llround(secs * 1e6));
}

}  // namespace fluidfaas::model
