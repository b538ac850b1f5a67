// Core scalar types shared by every FluidFaaS subsystem.
//
// All simulation timekeeping uses integral microseconds (`SimTime`) so that
// event ordering is exact and runs are bit-reproducible; floating point is
// reserved for derived metrics (rates, utilization fractions).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"

namespace fluidfaas {

/// Simulated time in microseconds since simulation start.
using SimTime = std::int64_t;

/// A span of simulated time in microseconds. Same representation as SimTime;
/// kept as a separate alias to document intent at interfaces.
using SimDuration = std::int64_t;

inline constexpr SimTime kTimeZero = 0;
inline constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::max();

/// Convenience literal-style constructors.
constexpr SimDuration Millis(double ms) {
  return static_cast<SimDuration>(ms * 1'000.0);
}
constexpr SimDuration Seconds(double s) {
  return static_cast<SimDuration>(s * 1'000'000.0);
}
constexpr SimDuration Minutes(double m) { return Seconds(m * 60.0); }

constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / 1'000'000.0;
}
constexpr double ToMillis(SimDuration d) {
  return static_cast<double>(d) / 1'000.0;
}

/// Strongly-typed integer identifiers. The tag parameter prevents, e.g.,
/// passing a GPU id where a slice id is expected.
template <typename Tag>
struct Id {
  std::int32_t value = -1;

  constexpr Id() = default;
  constexpr explicit Id(std::int32_t v) : value(v) {}

  constexpr bool valid() const { return value >= 0; }
  constexpr auto operator<=>(const Id&) const = default;
};

struct GpuTag {};
struct NodeTag {};
struct SliceTag {};
struct FunctionTag {};
struct InstanceTag {};
struct RequestTag {};
struct ComponentTag {};

using GpuId = Id<GpuTag>;
using NodeId = Id<NodeTag>;
using SliceId = Id<SliceTag>;
using FunctionId = Id<FunctionTag>;
using InstanceId = Id<InstanceTag>;
using RequestId = Id<RequestTag>;
using ComponentId = Id<ComponentTag>;

/// An Id from a wider counter (a container size, an int64 sequence number).
/// Throws FfsError when `n` is negative or above INT32_MAX instead of
/// letting it wrap to an invalid or reused id.
template <typename IdT, typename Int>
constexpr IdT CheckedId(Int n) {
  if (std::cmp_less(n, 0) ||
      std::cmp_greater(n, std::numeric_limits<std::int32_t>::max())) {
    throw FfsError("id " + std::to_string(n) +
                   " does not fit the 32-bit id space");
  }
  return IdT(static_cast<std::int32_t>(n));
}

template <typename Tag>
std::string ToString(Id<Tag> id) {
  return std::to_string(id.value);
}

/// Bytes, used for model weights, activation tensors, and MIG memory.
using Bytes = std::int64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

constexpr Bytes MiB(double m) { return static_cast<Bytes>(m * kMiB); }
constexpr Bytes GiB(double g) { return static_cast<Bytes>(g * kGiB); }

}  // namespace fluidfaas

// Hash support so Id types can key unordered containers.
namespace std {
template <typename Tag>
struct hash<fluidfaas::Id<Tag>> {
  size_t operator()(const fluidfaas::Id<Tag>& id) const noexcept {
    return std::hash<std::int32_t>{}(id.value);
  }
};
}  // namespace std
