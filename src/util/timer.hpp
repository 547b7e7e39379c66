// Wall-clock timing utilities used by the telemetry module and benches.
#pragma once

#include <chrono>

namespace dlouvain::util {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dlouvain::util
