// Tunables of the QoS subsystem (queueing discipline + admission control).
//
// Lives in the qos layer (not platform/config.h) so the disciplines and
// admission controllers can be built and tested below the platform; the
// platform embeds a QosConfig in its PlatformConfig and the CLI maps
// --queue / --admission onto the two name fields. The defaults — "fifo"
// discipline, "none" admission — reproduce the pre-QoS platform behaviour
// exactly (test-pinned byte identity).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace fluidfaas::qos {

struct QosConfig {
  /// Queue discipline for the platform's central pending set:
  /// "fifo" (adjusted-deadline priority, the extracted legacy behaviour),
  /// "fair" (per-function start-time fair queueing with MQFQ-style
  /// stickiness), or "edf" (earliest absolute SLO deadline first).
  std::string queue = "fifo";

  /// Admission controller: "none" (admit everything) or "shed"
  /// (token-bucket rate limit + depth cap + deadline-infeasible shedding).
  std::string admission = "none";

  /// Token bucket: sustained admits per second. 0 disables rate limiting.
  double rate_rps = 0.0;

  /// Reject new submissions once the central pending queue holds this many
  /// requests. 0 = unbounded.
  std::size_t max_queue_depth = 0;
};

}  // namespace fluidfaas::qos
