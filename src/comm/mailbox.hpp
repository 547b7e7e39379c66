// Per-rank mailbox with MPI-style (source, tag) matching.
//
// One Mailbox exists per destination rank. Senders append under the mutex
// and notify; receivers block until a message whose (src, tag) matches is
// present. Messages from the same source with the same tag are delivered in
// FIFO order -- the non-overtaking guarantee MPI provides and that the
// Louvain communication protocol relies on. Receives always block: get()
// waits on one (src, tag) stream, get_any() on the first of several (the
// primitive behind wait_any); there is no polling probe.
//
// The mailbox is also the runtime's detection layer (ISSUE 2 fault model):
//  * every message is stamped with a per-(src, tag) sequence number on entry
//    and receives silently drop duplicate sequence numbers, so injected or
//    transport-level duplication is absorbed instead of corrupting the
//    protocol;
//  * when the world's FaultInjector injects message faults, put() also
//    stamps a CRC32 of the payload and delivery verifies it (CorruptMessage
//    on mismatch). The check sees only bytes changed while the message is
//    queued -- it runs after serialisation and before deserialisation -- and
//    in process only the injector changes them, so a clean wire skips both
//    passes (under MPI the transport guarantees payload integrity);
//  * blocked receives honour a configurable deadline; on expiry they throw
//    CommTimeout carrying a deadlock diagnostic (which ranks are blocked on
//    which (src, tag), per-mailbox pending depths) instead of hanging
//    forever.
//
// ISSUE 7 adds the RESPONSE layer on top of detection -- rung 1 of the
// recovery ladder (docs/FAULT_TOLERANCE.md). With retransmission enabled,
// put() retains a clean copy of every payload in pooled slabs until its
// delivery acknowledges it; a receiver that detects a sequence gap or (on an
// injected wire) a checksum mismatch issues a NACK against the retained
// store and the link retransmits with capped exponential backoff, bounded by
// `retransmit_max` attempts per message before escalating to CommFailure.
// Retransmitted copies carry the original sequence number, so the existing
// duplicate-suppression machinery makes the repair invisible to the
// algorithm: delivered bytes and order are bitwise those of a clean wire.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/message.hpp"

namespace dlouvain::comm {

class FaultInjector;
class World;

/// Thrown out of blocked receives when another rank aborted (threw) so the
/// whole world can unwind instead of deadlocking.
struct WorldAborted : std::exception {
  const char* what() const noexcept override {
    return "communicator world aborted by another rank";
  }
};

/// Base class of every detectable communication fault. Recovery drivers
/// (Plan's restart loop) catch this one type to decide "retryable".
struct CommFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A blocked receive exceeded the configured deadline; what() carries the
/// deadlock diagnostic.
struct CommTimeout : CommFailure {
  using CommFailure::CommFailure;
};

/// A received payload failed its CRC32 check (checked only on a wire with
/// injected message faults).
struct CorruptMessage : CommFailure {
  using CommFailure::CommFailure;
};

/// Rung-2 structured verdict: a specific rank is DEAD (its heartbeat lane
/// declared it, or its own fault_point fired a permanent kill), not merely
/// slow. Carries the world rank so the rung-3 recovery driver can shrink the
/// world to the survivors instead of blindly retrying at full size.
struct RankDead : CommFailure {
  Rank rank{-1};
  RankDead(Rank dead_rank, const std::string& msg) : CommFailure(msg), rank(dead_rank) {}
};

class Mailbox {
 public:
  /// `world` may be null (standalone use in unit tests): no deadline, no
  /// global counters. `timeout_seconds` <= 0 = wait forever.
  /// `retransmit_max` > 0 enables link-level ARQ: that many retransmission
  /// attempts per message (first retry after `retransmit_backoff_ms`,
  /// doubling per attempt, capped) before the link escalates. Payload CRCs
  /// are stamped and verified only when `injector` injects message faults.
  explicit Mailbox(World* world = nullptr, Rank owner = 0, double timeout_seconds = 0,
                   FaultInjector* injector = nullptr, int retransmit_max = 0,
                   double retransmit_backoff_ms = 1.0);

  /// Deposit a message (buffered send: never blocks). Stamps the sequence
  /// number (and, on an injected wire, the payload CRC), retains a clean
  /// copy for retransmission when ARQ is on, then applies any injected fate
  /// (delay / duplicate / corrupt / lose) from the world's FaultInjector.
  void put(Message msg);

  /// Block until a message from `src` with tag `tag` is available, then
  /// remove and return it. Throws WorldAborted if abort() is called,
  /// CommTimeout past the configured deadline, CorruptMessage on checksum
  /// mismatch (injected wire, ARQ off).
  Message get(Rank src, Tag tag);

  /// One (src, tag) stream a receiver is interested in.
  struct Want {
    Rank src;
    Tag tag;
  };

  /// Block until a message matching ANY of `wants` is deliverable, then
  /// remove and return it together with the index of the want it matched.
  /// Among streams with deliverable heads, ARRIVAL order wins (the entry
  /// that was enqueued first), not want order -- the primitive behind
  /// wait_any and the collectives' arrival-order draining. Per-stream FIFO
  /// is preserved: a delayed stream head holds its stream back without
  /// blocking the other wanted streams.
  std::pair<Message, std::size_t> get_any(std::span<const Want> wants);

  /// Wake all blocked receivers with WorldAborted.
  void abort();

  /// One line for the deadlock report: blocked receivers and queue depth.
  /// Uses try_lock so a wedged peer cannot block the reporter; returns
  /// "rank N: <busy>" if the mailbox lock is held elsewhere.
  [[nodiscard]] std::string status_line() const;

 private:
  [[nodiscard]] static std::uint64_t stream_key(Rank src, Tag tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(tag);
  }
  [[nodiscard]] std::string status_line_locked() const;

  /// One pass over the queue under the caller's lock: drop duplicates,
  /// detect stream gaps, and deliver the oldest visible entry matching any
  /// want. `head_delayed`/`next_visible` report a matching-but-not-yet-
  /// visible head (or an ARQ backoff in progress) so blocking callers can
  /// bound their sleep.
  struct ScanResult {
    bool delivered{false};
    Message msg{};
    std::size_t want_index{0};
    bool head_delayed{false};
    std::chrono::steady_clock::time_point next_visible{};
  };
  ScanResult scan_locked(std::span<const Want> wants);
  std::pair<Message, std::size_t> get_any_impl(std::span<const Want> wants);

  // --- rung-1 ARQ internals (all under mutex_) ---

  /// Sender-retained copy of one unacknowledged message (the link buffer).
  struct Retained {
    std::uint64_t seq{0};
    std::vector<std::byte> payload;  ///< slab from arq_pool_
    std::uint32_t crc{0};            ///< 0 unless faulty_wire_
  };
  /// Per-stream retransmission state for the sequence number currently
  /// being recovered.
  struct ArqState {
    std::uint64_t seq{0};     ///< the missing/corrupt seq under recovery
    int attempts{0};          ///< retransmissions already issued for it
    std::chrono::steady_clock::time_point not_before{};  ///< backoff gate
  };

  [[nodiscard]] bool arq_enabled() const noexcept { return retransmit_max_ > 0; }
  /// NACK `seq` on stream (src, tag): retransmit from the retained store,
  /// honouring the backoff gate, or throw CommFailure once the retry budget
  /// is exhausted. Updates `result`'s sleep bound. `now` is the scan's
  /// timestamp. Returns true if the caller should keep scanning (the stream
  /// stays blocked either way).
  void nack_locked(std::uint64_t key, Rank src, Tag tag, std::uint64_t seq,
                   std::chrono::steady_clock::time_point now, const char* why,
                   ScanResult& result);
  /// Drop retained copies with seq <= `acked` (cumulative ack on delivery).
  void ack_locked(std::uint64_t key, std::uint64_t acked);

  World* world_;
  Rank owner_;
  double timeout_seconds_;
  FaultInjector* injector_;
  int retransmit_max_;
  double retransmit_backoff_ms_;
  /// The injector injects message faults: draw fates, and stamp and verify
  /// payload CRCs. A FaultPlan is fixed once its injector is built, so this
  /// never changes.
  bool faulty_wire_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool aborted_{false};
  std::unordered_map<std::uint64_t, std::uint64_t> next_put_seq_;
  std::unordered_map<std::uint64_t, std::uint64_t> next_deliver_seq_;
  std::vector<std::pair<Rank, Tag>> waiting_;  ///< blocked receivers' (src, tag)

  /// Unacked payload copies per stream (FIFO by seq) and the in-progress
  /// recovery state. Slabs come from arq_pool_ (private to this mailbox, so
  /// only ever touched under mutex_) and return to it on acknowledgement.
  std::unordered_map<std::uint64_t, std::deque<Retained>> retained_;
  std::unordered_map<std::uint64_t, ArqState> arq_;
  BufferPool arq_pool_;
  std::size_t retained_bytes_{0};  ///< printed by the deadlock status line
};

}  // namespace dlouvain::comm
