// Data-movement and model-loading cost models.
//
// MIG's strong isolation means two pipeline stages on different slices
// cannot exchange tensors in GPU memory: the producer copies device→host
// into shared memory and the consumer copies host→device (paper §5.2,
// overhead measured at 10–40 ms per hop in §7.3). Model (re)loading costs
// depend on where the weights live: MIG memory (hot), CPU memory (warm), or
// remote storage (cold) — the three keep-alive tiers of §5.3.
#pragma once

#include <cmath>

#include "common/types.h"

namespace fluidfaas::model {

/// Cost of moving a tensor between two pipeline stages on distinct MIG
/// slices, via host shared memory.
struct TransferCostModel {
  /// Fixed per-hop overhead: queue hand-off, process wake-up, pinned-buffer
  /// bookkeeping.
  SimDuration fixed = Millis(6);
  /// Effective PCIe bandwidth for one direction (GB/s). The tensor crosses
  /// the bus twice (D2H then H2D).
  double pcie_gbps = 20.0;

  SimDuration HopCost(Bytes tensor_bytes) const {
    const double secs =
        2.0 * static_cast<double>(tensor_bytes) / (pcie_gbps * 1e9);
    return fixed + static_cast<SimDuration>(std::llround(secs * 1e6));
  }
};

/// Cost of instantiating model weights on a MIG slice.
struct LoadCostModel {
  /// CUDA context/runtime initialization when a process first touches the
  /// slice (paid on cold start and on re-binding after full eviction).
  SimDuration runtime_init = Millis(250);
  /// Host-to-device weight copy bandwidth (GB/s) — warm start path.
  double h2d_gbps = 16.0;
  /// Remote-storage fetch bandwidth (GB/s) — cold start path.
  double remote_gbps = 1.2;
  /// Container / sandbox startup for a cold function instance.
  SimDuration container_start = Seconds(4.0);

  /// Warm start: weights already in CPU memory, copy to the slice.
  SimDuration WarmLoad(Bytes weights) const {
    const double secs = static_cast<double>(weights) / (h2d_gbps * 1e9);
    return runtime_init + static_cast<SimDuration>(std::llround(secs * 1e6));
  }

  /// Cold start: start the container, fetch weights remotely, then load.
  SimDuration ColdLoad(Bytes weights) const {
    const double fetch_secs =
        static_cast<double>(weights) / (remote_gbps * 1e9);
    return container_start +
           static_cast<SimDuration>(std::llround(fetch_secs * 1e6)) +
           WarmLoad(weights);
  }

  /// Eviction: device-to-host copy of the weights (checkpoint to CPU).
  SimDuration Evict(Bytes weights) const {
    const double secs = static_cast<double>(weights) / (h2d_gbps * 1e9);
    return static_cast<SimDuration>(std::llround(secs * 1e6));
  }
};

}  // namespace fluidfaas::model
