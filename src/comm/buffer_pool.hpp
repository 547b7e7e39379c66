// Pooled send-buffer slab for the message runtime (ISSUE 5).
//
// Every typed send used to allocate a fresh std::vector<std::byte>, copy the
// payload in, and the receiver freed it after deserializing -- one
// malloc/free pair per message on the hottest comm path. The pool recycles
// those buffers instead: Comm's typed send path acquires a slab, the typed
// receive paths hand the payload back once its contents are unpacked.
//
// Capacities are rounded up to powers of two so a released buffer lands in a
// bucket any later acquire of a similar size can reuse; retention is bounded
// (per bucket and in total bytes) so a one-off giant collective cannot pin
// its peak memory for the rest of the run. The pool is shared by all rank
// threads of a World and guarded by a mutex -- the win is skipping the
// allocator, not the lock (rank counts here are small).
#pragma once

#include <bit>
#include <cstddef>
#include <mutex>
#include <vector>

namespace dlouvain::comm {

class BufferPool {
 public:
  /// A buffer of size() == n, recycled from the pool when a matching slab is
  /// available (capacity = the next power of two >= n).
  [[nodiscard]] std::vector<std::byte> acquire(std::size_t n) {
    const std::size_t cap = slab_capacity(n);
    const std::size_t b = bucket_of(cap);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      auto& bucket = buckets_[b];
      if (!bucket.empty()) {
        std::vector<std::byte> buf = std::move(bucket.back());
        bucket.pop_back();
        held_bytes_ -= buf.capacity();
        buf.resize(n);
        return buf;
      }
    }
    std::vector<std::byte> buf;
    buf.reserve(cap);
    buf.resize(n);
    return buf;
  }

  /// Return a buffer to the pool. Buffers whose capacity is not a pool slab
  /// size, or that would exceed the retention bounds, are simply freed.
  void release(std::vector<std::byte>&& buf) {
    const std::size_t cap = buf.capacity();
    if (cap == 0 || cap != slab_capacity(cap)) return;  // not one of ours
    const std::size_t b = bucket_of(cap);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (buckets_[b].size() >= kMaxPerBucket || held_bytes_ + cap > kMaxHeldBytes)
      return;
    buf.clear();
    held_bytes_ += cap;
    buckets_[b].push_back(std::move(buf));
  }

 private:
  static constexpr std::size_t kMinSlab = 64;  ///< empty/1-element messages share a bucket
  static constexpr std::size_t kBuckets = 40;
  static constexpr std::size_t kMaxPerBucket = 64;
  static constexpr std::size_t kMaxHeldBytes = std::size_t{64} << 20;

  [[nodiscard]] static std::size_t slab_capacity(std::size_t n) {
    return std::bit_ceil(n < kMinSlab ? kMinSlab : n);
  }
  [[nodiscard]] static std::size_t bucket_of(std::size_t cap) {
    return static_cast<std::size_t>(std::countr_zero(cap));
  }

  std::mutex mutex_;
  std::vector<std::vector<std::byte>> buckets_[kBuckets]{};
  std::size_t held_bytes_{0};
};

}  // namespace dlouvain::comm
