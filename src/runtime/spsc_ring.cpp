#include "runtime/spsc_ring.h"

#include <bit>

namespace fluidfaas::runtime {

namespace {
constexpr std::size_t kHeader = sizeof(std::uint32_t);
}

SpscByteRing::SpscByteRing(std::size_t capacity) {
  FFS_CHECK_MSG(capacity >= 64, "ring too small");
  buffer_.resize(std::bit_ceil(capacity));
  mask_ = buffer_.size() - 1;
}

std::size_t SpscByteRing::ReadableBytes() const {
  return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                  head_.load(std::memory_order_acquire));
}

void SpscByteRing::CopyIn(std::size_t pos, const void* src, std::size_t n) {
  const std::size_t first = std::min(n, buffer_.size() - pos);
  std::memcpy(buffer_.data() + pos, src, first);
  if (n > first) {
    std::memcpy(buffer_.data(),
                static_cast<const std::byte*>(src) + first, n - first);
  }
}

void SpscByteRing::CopyOut(std::size_t pos, void* dst, std::size_t n) const {
  const std::size_t first = std::min(n, buffer_.size() - pos);
  std::memcpy(dst, buffer_.data() + pos, first);
  if (n > first) {
    std::memcpy(static_cast<std::byte*>(dst) + first, buffer_.data(),
                n - first);
  }
}

void SpscByteRing::BumpVersion() {
  version_.fetch_add(1, std::memory_order_release);
  version_.notify_all();
}

bool SpscByteRing::TryPush(const void* data, std::uint32_t len) {
  const std::size_t need = kHeader + len;
  FFS_CHECK_MSG(need <= buffer_.size() / 2,
                "frame larger than half the ring capacity");
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (buffer_.size() - static_cast<std::size_t>(tail - head) < need) {
    return false;
  }
  CopyIn(static_cast<std::size_t>(tail) & mask_, &len, kHeader);
  CopyIn(static_cast<std::size_t>(tail + kHeader) & mask_, data, len);
  tail_.store(tail + need, std::memory_order_release);
  pushed_.fetch_add(1, std::memory_order_relaxed);
  BumpVersion();
  return true;
}

bool SpscByteRing::Push(const void* data, std::uint32_t len) {
  // Optimistic spin, then sleep on the version word until the consumer
  // frees space (or the ring closes).
  for (int i = 0; i < 64; ++i) {
    if (closed()) return false;
    if (TryPush(data, len)) return true;
  }
  while (true) {
    const std::uint64_t v = version_.load(std::memory_order_acquire);
    if (closed()) return false;
    if (TryPush(data, len)) return true;
    version_.wait(v, std::memory_order_acquire);
  }
}

std::optional<std::vector<std::byte>> SpscByteRing::TryPop() {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (tail - head < kHeader) return std::nullopt;
  std::uint32_t len = 0;
  CopyOut(static_cast<std::size_t>(head) & mask_, &len, kHeader);
  FFS_CHECK(tail - head >= kHeader + len);
  std::vector<std::byte> out(len);
  CopyOut(static_cast<std::size_t>(head + kHeader) & mask_, out.data(), len);
  head_.store(head + kHeader + len, std::memory_order_release);
  popped_.fetch_add(1, std::memory_order_relaxed);
  BumpVersion();
  return out;
}

std::optional<std::vector<std::byte>> SpscByteRing::Pop() {
  for (int i = 0; i < 64; ++i) {
    if (auto frame = TryPop()) return frame;
    if (closed() && ReadableBytes() == 0) return std::nullopt;
  }
  while (true) {
    const std::uint64_t v = version_.load(std::memory_order_acquire);
    if (auto frame = TryPop()) return frame;
    if (closed() && ReadableBytes() == 0) return std::nullopt;
    version_.wait(v, std::memory_order_acquire);
  }
}

void SpscByteRing::Close() {
  closed_.store(true, std::memory_order_release);
  BumpVersion();
}

}  // namespace fluidfaas::runtime
