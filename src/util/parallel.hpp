// Per-rank thread pool and deterministic parallel primitives -- the
// shared-memory half of the hybrid MPI+OpenMP-style execution model (the
// paper's implementation is explicitly MPI+OpenMP; here each rank-thread
// owns a small pool of compute threads for its local hot loops).
//
// Determinism contract: every primitive in this header produces BITWISE
// IDENTICAL results at any thread count, including 1.
//  * parallel_for uses static contiguous chunking, so it is deterministic
//    whenever the body writes only to disjoint, index-addressed slots.
//  * parallel_reduce partitions the index range into a FIXED number of
//    chunks independent of the thread count and combines the chunk partials
//    with a fixed pairwise tree, so floating-point sums do not depend on how
//    many threads computed them.
// This is what lets the distributed Louvain driver promise the same
// community vector and the same modularity bits for --threads 1/2/4.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/timer.hpp"

namespace dlouvain::util {

/// A fixed-size pool of worker threads with fork-join semantics. The calling
/// thread participates as logical thread 0, so a pool of T threads spawns
/// only T-1 workers and a pool of 1 spawns none (pure serial, no sync cost).
///
/// Also keeps per-thread busy time (seconds spent inside jobs), which the
/// telemetry layer reports as TimeBreakdown::compute_busy so the compute /
/// communication attribution stays honest under threading.
class ThreadPool {
 public:
  /// `num_threads` <= 0 picks the hardware concurrency.
  explicit ThreadPool(int num_threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const noexcept {
    return static_cast<int>(busy_.size());
  }

  /// Run job(thread_id) once on every pool thread (the caller runs id 0) and
  /// block until all are done. If any invocation throws, the first exception
  /// is rethrown on the caller after the join.
  void run(const std::function<void(int)>& job);

  /// Run job() on the caller as thread 0 without waking any worker, timed
  /// into thread 0's busy slot like run() times it.
  template <typename Job>
  void run_inline(Job&& job) {
    const WallTimer timer;
    job();
    busy_[0] += timer.seconds();
  }

  /// Sum of per-thread seconds spent inside jobs since the last reset.
  [[nodiscard]] double busy_seconds() const;
  void reset_busy();

 private:
  void worker_loop(int tid);

  std::vector<std::thread> workers_;
  std::vector<double> busy_;  ///< by thread id, guarded by mutex_ at edges

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_{nullptr};
  std::uint64_t epoch_{0};
  int remaining_{0};
  bool stop_{false};
  std::exception_ptr first_error_;
};

/// Number of fixed reduction chunks. Constant by design: the chunking (and
/// therefore every partial-sum boundary) must not depend on the thread
/// count, or float sums would change with it.
inline constexpr std::int64_t kReduceChunks = 64;

/// Fixed-shape pairwise tree sum. Deterministic for a given input array.
inline double tree_reduce(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> buf(values.begin(), values.end());
  std::size_t len = buf.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; ++i) buf[i] = buf[2 * i] + buf[2 * i + 1];
    if (len % 2 != 0) {
      buf[half] = buf[len - 1];
      len = half + 1;
    } else {
      len = half;
    }
  }
  return buf[0];
}

/// Bounds of fixed chunk `c` of `k` chunks over [0, n).
inline std::pair<std::int64_t, std::int64_t> fixed_chunk(std::int64_t n,
                                                         std::int64_t c,
                                                         std::int64_t k) {
  const std::int64_t q = n / k;
  const std::int64_t r = n % k;
  const std::int64_t begin = c * q + std::min(c, r);
  const std::int64_t end = begin + q + (c < r ? 1 : 0);
  return {begin, end};
}

/// Static-chunked parallel loop over [0, n): each pool thread receives at
/// most one contiguous chunk [begin, end) and calls body(tid, begin, end).
/// With a null pool (or one thread, or a one-element range) the body runs
/// inline on the caller; a given pool still counts it as thread 0's busy
/// time.
template <typename Body>
void parallel_for(ThreadPool* pool, std::int64_t n, Body&& body) {
  if (n <= 0) return;
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  if (threads <= 1 || n == 1) {
    if (pool == nullptr) {
      body(0, std::int64_t{0}, n);
    } else {
      pool->run_inline([&] { body(0, std::int64_t{0}, n); });
    }
    return;
  }
  const std::int64_t chunk = (n + threads - 1) / threads;
  pool->run([&](int tid) {
    const std::int64_t begin = static_cast<std::int64_t>(tid) * chunk;
    const std::int64_t end = std::min(n, begin + chunk);
    if (begin < end) body(tid, begin, end);
  });
}

/// Deterministic parallel sum: evaluate partial(begin, end) over the
/// kReduceChunks fixed chunks of [0, n) (in parallel, chunks round-robined
/// over threads) and tree-reduce the chunk partials in fixed order. The
/// result is bitwise identical at any thread count.
template <typename Partial>
double parallel_reduce(ThreadPool* pool, std::int64_t n, Partial&& partial) {
  if (n <= 0) return 0.0;
  double partials[kReduceChunks] = {};
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  const auto chunk_worker = [&](int tid) {
    for (std::int64_t c = tid; c < kReduceChunks; c += threads) {
      const auto [begin, end] = fixed_chunk(n, c, kReduceChunks);
      if (begin < end) partials[c] = partial(begin, end);
    }
  };
  if (threads <= 1) {
    chunk_worker(0);
  } else {
    pool->run(chunk_worker);
  }
  return tree_reduce(std::span<const double>(partials, kReduceChunks));
}

}  // namespace dlouvain::util
