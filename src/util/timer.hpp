// Wall-clock timing utilities used by the telemetry module and benches.
#pragma once

#include <chrono>

namespace dlouvain::util {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates elapsed time across multiple start/stop windows; used for the
/// Section V-A style compute/communication breakdowns.
class AccumTimer {
 public:
  void start() noexcept { window_.reset(); running_ = true; }

  void stop() noexcept {
    if (running_) {
      total_ += window_.seconds();
      ++count_;
      running_ = false;
    }
  }

  [[nodiscard]] double seconds() const noexcept { return total_; }
  [[nodiscard]] long count() const noexcept { return count_; }
  void clear() noexcept { total_ = 0; count_ = 0; running_ = false; }

 private:
  WallTimer window_;
  double total_{0};
  long count_{0};
  bool running_{false};
};

/// RAII start/stop for an AccumTimer.
class ScopedAccum {
 public:
  explicit ScopedAccum(AccumTimer& timer) noexcept : timer_(timer) { timer_.start(); }
  ~ScopedAccum() { timer_.stop(); }
  ScopedAccum(const ScopedAccum&) = delete;
  ScopedAccum& operator=(const ScopedAccum&) = delete;

 private:
  AccumTimer& timer_;
};

}  // namespace dlouvain::util
