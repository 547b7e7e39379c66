// World: the shared state behind one communicator group, plus the launcher
// that runs an SPMD function on `size` rank-threads.
//
// This is the project's stand-in for an MPI job: `comm::run(p, fn)` is
// `mpirun -np p`, and the `Comm` handle each rank receives is its
// MPI_COMM_WORLD -- the only communicator; a rank number is a world rank
// everywhere. See DESIGN.md section 2 for the substitution rationale.
//
// RunOptions carries the fault-tolerance knobs: a receive deadline (blocked
// receives throw CommTimeout with a deadlock diagnostic instead of hanging),
// an optional FaultInjector whose plan the mailboxes apply to every message,
// and the rung-1 retransmission budget (see docs/FAULT_TOLERANCE.md). All
// default off, so existing callers are unchanged.
//
// The World also hosts the rung-2 heartbeat lane: every rank stamps a
// per-rank health slot on each send and successful receive (plain relaxed
// atomics -- no extra messages), and a rank whose permanent-death trigger
// fires is declared dead here. Blocked receives consult the lane when their
// deadline expires to turn a raw timeout into a structured verdict: rank
// dead (RankDead, carries who), slow-but-alive (extend the deadline a
// bounded number of times), or no progress anywhere (CommTimeout with the
// deadlock diagnostic, exactly as before).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/mailbox.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace dlouvain::comm {

class Comm;
class FaultInjector;

/// Knobs for one run()/World. Defaults reproduce the original behaviour
/// (wait forever, no injection, no link-level retransmission).
struct RunOptions {
  /// <= 0 waits forever; > 0 makes every blocked receive throw CommTimeout
  /// (with a deadlock diagnostic) after this many seconds without a match.
  double timeout_seconds{0};
  /// Shared so crash triggers stay one-shot across restart attempts of the
  /// same job. Null = no fault injection.
  std::shared_ptr<FaultInjector> faults;
  /// Per-rank counter registry. Null = World creates a private one (each
  /// rank still reads its own block through Comm::counters()). Pass one per
  /// recovery attempt so failed-attempt traffic stays attributable instead
  /// of leaking into the next attempt. Must be sized to the world size.
  std::shared_ptr<util::MetricsRegistry> metrics;
  /// Null = tracing off (the default; spans become no-ops). Sized to at
  /// least the world size. May outlive several attempts: failed-attempt
  /// spans stay in the rings and flush alongside the successful run's.
  std::shared_ptr<util::TraceStore> trace;
  /// > 0 enables rung-1 link-level ARQ: that many retransmission attempts
  /// per message (sequence gap or checksum mismatch triggers a NACK against
  /// the sender-retained copy) before the link escalates to CommFailure.
  int retransmit_max{0};
  /// First-retry backoff; doubles per attempt, capped (mailbox.cpp).
  double retransmit_backoff_ms{1.0};
};

/// Shared state for one group of ranks. Created by run(); user code only
/// ever sees Comm handles.
class World {
 public:
  explicit World(int size, const RunOptions& options = {});

  [[nodiscard]] int size() const noexcept { return static_cast<int>(mailboxes_.size()); }
  [[nodiscard]] Mailbox& mailbox(Rank rank) { return *mailboxes_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] FaultInjector* injector() const noexcept { return options_.faults.get(); }

  /// Wake every blocked receiver with WorldAborted (called when a rank throws).
  void abort_all();

  /// Multi-line snapshot of every OTHER rank's mailbox (blocked receivers,
  /// pending depths), for the CommTimeout diagnostic. Uses try_lock per
  /// mailbox so simultaneously timing-out ranks cannot deadlock on each
  /// other's report.
  [[nodiscard]] std::string deadlock_report(Rank reporting) const;

  // --- rung-2 heartbeat lane ---

  /// Record liveness for `rank` (called on every send and successful
  /// receive; relaxed atomic store, no synchronisation required -- the lane
  /// is advisory, the verdict logic tolerates stale reads).
  void beat(Rank rank) noexcept {
    health_[static_cast<std::size_t>(rank)].last_beat_ns.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_relaxed);
  }
  /// Mark `rank` permanently dead (its kill trigger fired). Sticky.
  void declare_dead(Rank rank) noexcept {
    health_[static_cast<std::size_t>(rank)].dead.store(true, std::memory_order_relaxed);
  }
  /// Lowest rank declared dead, or -1 if everyone is (presumed) alive.
  [[nodiscard]] Rank first_dead_rank() const noexcept {
    for (std::size_t r = 0; r < mailboxes_.size(); ++r)
      if (health_[r].dead.load(std::memory_order_relaxed)) return static_cast<Rank>(r);
    return -1;
  }
  /// Did any rank other than `exclude` beat strictly after `t`? The
  /// slow-vs-dead discriminator: a deadlocked world has no beats in the
  /// window, a merely degraded one does.
  [[nodiscard]] bool beat_after(std::chrono::steady_clock::time_point t,
                                Rank exclude) const noexcept {
    const std::int64_t cutoff = t.time_since_epoch().count();
    for (std::size_t r = 0; r < mailboxes_.size(); ++r) {
      if (static_cast<Rank>(r) == exclude) continue;
      if (health_[r].last_beat_ns.load(std::memory_order_relaxed) > cutoff) return true;
    }
    return false;
  }

  /// `rank`'s block of the per-rank counter registry. Each rank counts into
  /// its own cache-line-aligned block from its own thread -- see
  /// util/metrics.hpp for the single-writer contract.
  [[nodiscard]] util::CounterBlock& counters(Rank rank) { return metrics_->rank(rank); }
  /// Rank's trace ring, or nullptr when tracing is off.
  [[nodiscard]] util::TraceBuffer* trace(Rank rank) const {
    return trace_ ? trace_->buffer(rank) : nullptr;
  }

  /// Shared send-buffer slab pool: typed sends acquire payload buffers here,
  /// typed receives hand them back after unpacking (see buffer_pool.hpp).
  [[nodiscard]] BufferPool& pool() noexcept { return pool_; }

 private:
  /// One cache line per rank so beats never contend.
  struct alignas(64) RankHealth {
    std::atomic<std::int64_t> last_beat_ns{0};
    std::atomic<bool> dead{false};
  };

  RunOptions options_;
  BufferPool pool_;
  std::shared_ptr<util::MetricsRegistry> metrics_;
  std::shared_ptr<util::TraceStore> trace_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::unique_ptr<RankHealth[]> health_;
};

/// Run `fn(comm)` on `nranks` concurrent rank-threads and join them all.
/// If any rank throws, it writes one line to stderr, the world is aborted
/// (blocked receives on other ranks unwind with WorldAborted) and the first
/// non-abort exception is rethrown on the caller's thread. Traffic and
/// fault counts are read from the RunOptions::metrics registry and the
/// RunOptions::faults injector.
void run(int nranks, const std::function<void(Comm&)>& fn,
         const RunOptions& options = {});

}  // namespace dlouvain::comm
