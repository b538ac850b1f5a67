// Lock-free single-producer / single-consumer byte ring.
//
// This is the host-shared-memory transport of the FluidFaaS runtime
// (Listing 1): each pipeline stage runs in its own execution context and
// hands tensors to its successor through one of these rings —
// `_write_to_shared_memory` / `_get_from_shared_memory` in the paper's
// pseudocode. Messages are length-prefixed byte frames.
//
// Concurrency design:
//   * exactly one producer thread calls TryPush/Push, exactly one consumer
//     thread calls TryPop/Pop;
//   * head_ and tail_ live on separate cache lines to avoid false sharing;
//   * release/acquire pairs order payload writes against index publication;
//   * blocking Push/Pop wait with C++20 atomic wait/notify — no spinning
//     beyond a short optimistic phase, no mutexes on the data path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <vector>

#include "common/error.h"

namespace fluidfaas::runtime {

// A fixed 64-byte destructive-interference size: correct for every x86-64
// and most AArch64 parts, and — unlike std::hardware_destructive_
// interference_size — ABI-stable across translation units (GCC warns about
// exactly that instability under -Winterference-size).
inline constexpr std::size_t kCacheLine = 64;

class SpscByteRing {
 public:
  /// `capacity` is rounded up to a power of two; one frame must fit with
  /// its 4-byte header, so size frames below capacity/2.
  explicit SpscByteRing(std::size_t capacity);

  SpscByteRing(const SpscByteRing&) = delete;
  SpscByteRing& operator=(const SpscByteRing&) = delete;

  std::size_t capacity() const { return buffer_.size(); }

  /// Bytes currently readable (a racy snapshot while the other side runs).
  std::size_t ReadableBytes() const;

  /// Producer side. Frame = 4-byte little-endian length + payload.
  /// TryPush returns false when the frame does not fit right now.
  bool TryPush(const void* data, std::uint32_t len);
  /// Blocking push; waits for the consumer. Returns false if the ring was
  /// closed before the frame could be written.
  bool Push(const void* data, std::uint32_t len);

  /// Consumer side. TryPop returns nullopt when no complete frame is
  /// available.
  std::optional<std::vector<std::byte>> TryPop();
  /// Blocking pop; returns nullopt only after Close() once drained.
  std::optional<std::vector<std::byte>> Pop();

  /// Producer signals end-of-stream. Consumers drain remaining frames,
  /// then Pop returns nullopt.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Frames pushed/popped (owned by the respective threads; read-only
  /// elsewhere).
  std::uint64_t pushed() const { return pushed_.load(std::memory_order_relaxed); }
  std::uint64_t popped() const { return popped_.load(std::memory_order_relaxed); }

 private:
  void CopyIn(std::size_t pos, const void* src, std::size_t n);
  void CopyOut(std::size_t pos, void* dst, std::size_t n) const;
  void BumpVersion();

  std::vector<std::byte> buffer_;
  std::size_t mask_ = 0;

  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  // consumer index
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  // producer index
  alignas(kCacheLine) std::atomic<bool> closed_{false};
  /// Monotone word bumped on every push/pop/close; blocking paths wait on
  /// it so a notification can never be lost between condition check and
  /// atomic wait.
  alignas(kCacheLine) std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
};

}  // namespace fluidfaas::runtime
