// Per-rank ring-buffered tracing flushed to Chrome trace_event JSON
// (chrome://tracing, https://ui.perfetto.dev). The tentpole of ISSUE 4.
//
// Invariants that keep the determinism tests green with tracing enabled:
//   * recording a span takes the SAME code path regardless of thread count --
//     spans are recorded on the owning rank's thread into that rank's ring
//     buffer (single-writer, no locks, no atomics on the hot path);
//   * the buffers are drained (write_chrome_trace) strictly OUTSIDE timed
//     regions, after comm::run has joined the rank threads;
//   * tracing never feeds back into the algorithm: span contents are wall
//     timestamps only, never read by compute code.
//
// A null TraceBuffer* disables a span's recording (two branch instructions),
// so the trace-off hot path is unchanged; a span that feeds a breakdown
// bucket still reads the clock twice.
//
// Span taxonomy note: alongside the timed phase/iteration spans, the Session
// recovery driver records zero-length MARKER spans in the "recovery"
// category ("recovery_restart", "recovery_shrink") with the attempt number
// in the iteration field -- they make ladder escalations visible on the
// trace timeline next to the work they interrupted (docs/OBSERVABILITY.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace dlouvain::util {

/// One completed span. `name`/`cat` must be string literals (stored as
/// pointers; the ring never owns strings).
struct TraceEvent {
  const char* name{nullptr};
  const char* cat{nullptr};
  double ts_us{0};   ///< start, microseconds since the store epoch
  double dur_us{0};  ///< duration, microseconds
  std::int32_t phase{-1};
  std::int64_t iteration{-1};
};

/// Fixed-capacity ring of TraceEvents for ONE rank. Overwrites the oldest
/// event when full and counts the overwrites, so a long run degrades to "the
/// most recent N spans" instead of unbounded memory.
class TraceBuffer {
 public:
  using Clock = std::chrono::steady_clock;

  TraceBuffer(int pid, Clock::time_point epoch, std::size_t capacity)
      : pid_(pid), epoch_(epoch), events_(capacity) {}

  void record(const char* name, const char* cat, Clock::time_point start,
              Clock::time_point end, int phase, std::int64_t iteration) {
    TraceEvent& e = events_[head_];
    e.name = name;
    e.cat = cat;
    e.ts_us = std::chrono::duration<double, std::micro>(start - epoch_).count();
    e.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
    e.phase = phase;
    e.iteration = iteration;
    head_ = (head_ + 1) % events_.size();
    if (size_ < events_.size())
      ++size_;
    else
      ++dropped_;
  }

  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }

  /// Events oldest-first. Call only after the owning rank thread is joined.
  [[nodiscard]] std::vector<TraceEvent> drain() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    const std::size_t start = (head_ + events_.size() - size_) % events_.size();
    for (std::size_t i = 0; i < size_; ++i)
      out.push_back(events_[(start + i) % events_.size()]);
    return out;
  }

 private:
  int pid_;
  Clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::int64_t dropped_{0};
};

/// RAII span. Constructed against a rank's TraceBuffer (or nullptr for
/// trace-off); records a complete "X" event at destruction.
///
/// A span may also feed a breakdown bucket (`bucket`, e.g. one of a phase's
/// TimeBreakdown fields): it then reads the clock at entry and exit even
/// with tracing off and adds the elapsed seconds to `*bucket`. The recorded
/// event and the bucket share the same two time points, so the spans that
/// feed a bucket sum to it exactly.
class TraceSpan {
 public:
  TraceSpan(TraceBuffer* buffer, const char* name, const char* cat,
            int phase = -1, std::int64_t iteration = -1)
      : TraceSpan(buffer, nullptr, name, cat, phase, iteration) {}

  TraceSpan(TraceBuffer* buffer, double* bucket, const char* name, const char* cat,
            int phase = -1, std::int64_t iteration = -1)
      : buffer_(buffer),
        bucket_(bucket),
        name_(name),
        cat_(cat),
        phase_(phase),
        iteration_(iteration) {
    if (buffer_ != nullptr || bucket_ != nullptr) start_ = TraceBuffer::Clock::now();
  }

  ~TraceSpan() {
    if (buffer_ == nullptr && bucket_ == nullptr) return;
    const auto end = TraceBuffer::Clock::now();
    if (bucket_ != nullptr)
      *bucket_ += std::chrono::duration<double>(end - start_).count();
    if (buffer_ != nullptr) buffer_->record(name_, cat_, start_, end, phase_, iteration_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  double* bucket_;
  const char* name_;
  const char* cat_;
  int phase_;
  std::int64_t iteration_;
  TraceBuffer::Clock::time_point start_{};
};

/// All ranks' buffers plus the shared epoch. One store can span several
/// recovery attempts -- spans from a failed attempt stay in the rings and are
/// flushed alongside the successful run's, which is exactly what you want
/// when debugging a crash.
class TraceStore {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TraceStore(int num_ranks, std::size_t capacity_per_rank = kDefaultCapacity)
      : epoch_(TraceBuffer::Clock::now()) {
    buffers_.reserve(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r)
      buffers_.emplace_back(r, epoch_, capacity_per_rank);
  }

  [[nodiscard]] int num_ranks() const noexcept { return static_cast<int>(buffers_.size()); }

  [[nodiscard]] TraceBuffer* buffer(int rank) {
    if (rank < 0 || rank >= num_ranks()) return nullptr;
    return &buffers_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] std::int64_t total_dropped() const {
    std::int64_t n = 0;
    for (const auto& b : buffers_) n += b.dropped();
    return n;
  }

  /// Merged Chrome trace_event JSON: one pid per rank, process_name metadata,
  /// complete ("X") events with phase/iteration args. Call after comm::run.
  void write_chrome_trace(std::ostream& out) const {
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& buffer : buffers_) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << buffer.pid()
          << ",\"tid\":0,\"ts\":0,\"args\":{\"name\":\"rank " << buffer.pid()
          << "\"}}";
      for (const auto& e : buffer.drain()) {
        // Microseconds to the steady clock's nanosecond, so ts and dur read
        // back exactly (six significant digits would round a timestamp 1 s
        // into the run to 10 us).
        char times[64];
        std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", e.ts_us,
                      e.dur_us);
        out << ",{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
            << "\",\"ph\":\"X\",\"pid\":" << buffer.pid() << ",\"tid\":0," << times
            << ",\"args\":{\"phase\":" << e.phase << ",\"iteration\":" << e.iteration
            << "}}";
      }
    }
    out << "]}";
  }

 private:
  TraceBuffer::Clock::time_point epoch_;
  std::vector<TraceBuffer> buffers_;
};

}  // namespace dlouvain::util
