#include "comm/mailbox.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "util/crc32.hpp"

namespace dlouvain::comm {

namespace {

using Clock = std::chrono::steady_clock;

/// ARQ backoff plateaus at base * 2^kBackoffCapDoublings -- exponential
/// enough to yield under persistent trouble, capped so a recovering link
/// re-probes within a bounded interval.
constexpr int kBackoffCapDoublings = 6;

/// How many times a bounded receive may extend its deadline on evidence the
/// world is slow-but-alive (rung-2 verdict) before reporting CommTimeout
/// anyway. A genuinely deadlocked world produces no heartbeats, so it never
/// extends and the diagnostic fires on schedule.
constexpr int kMaxSlowExtensions = 3;

/// RAII entry in the mailbox's blocked-receiver registry (caller holds the
/// mailbox mutex at construction and destruction). Registers every wanted
/// stream so the deadlock report names all of them.
struct WaitingGuard {
  std::vector<std::pair<Rank, Tag>>& registry;
  std::span<const Mailbox::Want> wants;

  WaitingGuard(std::vector<std::pair<Rank, Tag>>& r, std::span<const Mailbox::Want> ws)
      : registry(r), wants(ws) {
    for (const auto& w : wants) registry.emplace_back(w.src, w.tag);
  }
  ~WaitingGuard() {
    for (const auto& w : wants) {
      const auto it = std::find(registry.begin(), registry.end(), std::pair(w.src, w.tag));
      if (it != registry.end()) registry.erase(it);
    }
  }
};

std::string wants_desc(std::span<const Mailbox::Want> wants) {
  std::string out;
  for (std::size_t i = 0; i < wants.size(); ++i) {
    if (i != 0) out += i + 1 == wants.size() ? " or " : ", ";
    out += "(src=" + std::to_string(wants[i].src) + ", tag=" + std::to_string(wants[i].tag) + ")";
  }
  return out;
}

}  // namespace

Mailbox::Mailbox(World* world, Rank owner, double timeout_seconds, FaultInjector* injector,
                 int retransmit_max, double retransmit_backoff_ms)
    : world_(world), owner_(owner), timeout_seconds_(timeout_seconds), injector_(injector),
      retransmit_max_(retransmit_max), retransmit_backoff_ms_(retransmit_backoff_ms),
      faulty_wire_(injector != nullptr && injector->injects_messages()) {}

void Mailbox::put(Message msg) {
  // Hash on the sender's thread, before the lock, so other senders to this
  // rank do not wait for the pass.
  if (faulty_wire_) msg.crc = util::crc32(msg.payload);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    msg.seq = next_put_seq_[stream_key(msg.src, msg.tag)]++;
    msg.arrived_at = Clock::now();

    if (arq_enabled()) {
      // Retain the CLEAN payload (before any injected fate) in a pooled
      // slab: the sender-side link buffer a NACK retransmits from. Released
      // by the cumulative ack when the message is delivered.
      std::vector<std::byte> copy = arq_pool_.acquire(msg.payload.size());
      if (!copy.empty()) std::memcpy(copy.data(), msg.payload.data(), copy.size());
      retained_bytes_ += copy.size();
      retained_[stream_key(msg.src, msg.tag)].push_back(
          Retained{msg.seq, std::move(copy), msg.crc});
    }

    bool duplicate = false;
    bool lose = false;
    if (faulty_wire_) {
      const auto fate =
          injector_->message_fate(owner_, msg.src, msg.tag, msg.seq, msg.payload.size());
      lose = fate.lose;
      if (fate.delay) {
        msg.visible_at = msg.arrived_at + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double, std::milli>(
                                                  injector_->delay_ms()));
      }
      if (fate.corrupt) {
        // Flip one bit AFTER the checksum was computed: wire corruption the
        // receiver's CRC verification must catch.
        auto& byte = msg.payload[fate.corrupt_bit / 8];
        byte ^= static_cast<std::byte>(1u << (fate.corrupt_bit % 8));
      }
      duplicate = fate.duplicate;
    }

    // A lost message consumed its sequence number but never reaches the
    // queue: the receiver sees a stream gap (and, with ARQ, NACKs it).
    if (!lose) {
      if (duplicate) queue_.push_back(msg);  // same seq: dedup layer's problem
      queue_.push_back(std::move(msg));
    }
  }
  cv_.notify_all();
}

Mailbox::ScanResult Mailbox::scan_locked(std::span<const Want> wants) {
  // Queue order is put order across ALL streams, so delivering the first
  // deliverable match is arrival-order completion. Per-stream FIFO needs no
  // extra bookkeeping: only the entry whose seq equals the stream's
  // next-deliver counter is a candidate, so later entries (including
  // retransmitted copies, which sit out of arrival order at the back) can
  // never overtake.
  ScanResult result;
  const auto now = Clock::now();
  struct Gap {
    std::uint64_t key;
    Rank src;
    Tag tag;
    std::uint64_t expected;
    std::uint64_t found;
  };
  std::vector<Gap> gaps;           // streams where an entry past a hole was seen
  std::vector<std::uint64_t> satisfied;  // streams holding a seq==expected entry
  const auto is_satisfied = [&](std::uint64_t key) {
    return std::find(satisfied.begin(), satisfied.end(), key) != satisfied.end();
  };

  for (std::size_t i = 0; i < queue_.size();) {
    const Message& m = queue_[i];
    const auto match = std::find_if(wants.begin(), wants.end(), [&](const Want& w) {
      return m.src == w.src && m.tag == w.tag;
    });
    if (match == wants.end()) {
      ++i;
      continue;
    }
    const std::uint64_t key = stream_key(m.src, m.tag);
    auto& expected = next_deliver_seq_[key];
    if (m.seq < expected) {
      // Duplicate delivery: drop and keep scanning. The counter goes into
      // the RECEIVER's block -- receives run on the owner's thread,
      // honouring the single-writer contract of util/metrics.hpp.
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      if (world_ != nullptr)
        world_->counters(owner_)[util::Counter::kDuplicatesDropped] += 1;
      continue;
    }
    if (m.seq > expected) {
      // A hole precedes this entry: either the expected message is lost
      // (resolved after the walk -- NACK with ARQ, hard failure without) or
      // its copy is merely delayed and sits elsewhere in the queue, which
      // `satisfied` disambiguates.
      if (std::none_of(gaps.begin(), gaps.end(), [&](const Gap& g) { return g.key == key; }))
        gaps.push_back(Gap{key, m.src, m.tag, expected, m.seq});
      ++i;
      continue;
    }
    // m.seq == expected: the head of this stream.
    if (m.visible_at > now) {
      if (!result.head_delayed || m.visible_at < result.next_visible)
        result.next_visible = m.visible_at;
      result.head_delayed = true;
      satisfied.push_back(key);
      ++i;
      continue;
    }
    const bool crc_ok = !faulty_wire_ || util::crc32(m.payload) == m.crc;
    if (!crc_ok && arq_enabled()) {
      // Rung 1: discard the corrupt copy and NACK a clean retransmission
      // from the retained store. The stream stays blocked until it lands.
      const Rank src = m.src;
      const Tag tag = m.tag;
      const std::uint64_t seq = m.seq;
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      nack_locked(key, src, tag, seq, now, "checksum mismatch", result);
      satisfied.push_back(key);  // recovery in progress; no second NACK below
      continue;
    }
    result.msg = std::move(queue_[i]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    ++expected;
    if (!crc_ok) {
      throw CorruptMessage("rank " + std::to_string(owner_) +
                           ": payload checksum mismatch on message (src=" +
                           std::to_string(result.msg.src) +
                           ", tag=" + std::to_string(result.msg.tag) +
                           ", seq=" + std::to_string(result.msg.seq) + ", " +
                           std::to_string(result.msg.payload.size()) + " bytes)");
    }
    ack_locked(key, result.msg.seq);
    result.delivered = true;
    result.want_index = static_cast<std::size_t>(match - wants.begin());
    return result;
  }

  // Nothing deliverable. Streams with a hole and no queued head copy need
  // link-level recovery; so does the lost-TAIL case (the newest message
  // dropped, leaving no queue entry at all), which only the retained store
  // can witness.
  if (arq_enabled()) {
    for (const auto& w : wants) {
      const std::uint64_t key = stream_key(w.src, w.tag);
      if (is_satisfied(key)) continue;
      const auto rit = retained_.find(key);
      if (rit == retained_.end() || rit->second.empty()) continue;
      const auto dit = next_deliver_seq_.find(key);
      const std::uint64_t expected = dit == next_deliver_seq_.end() ? 0 : dit->second;
      if (rit->second.front().seq != expected) continue;
      nack_locked(key, w.src, w.tag, expected, now, "sequence gap", result);
    }
  } else {
    for (const auto& g : gaps) {
      if (is_satisfied(g.key)) continue;
      throw CommFailure("mailbox of rank " + std::to_string(owner_) +
                        ": lost message in stream (src=" + std::to_string(g.src) +
                        ", tag=" + std::to_string(g.tag) + "): expected seq " +
                        std::to_string(g.expected) + ", found " + std::to_string(g.found));
    }
  }
  return result;
}

void Mailbox::nack_locked(std::uint64_t key, Rank src, Tag tag, std::uint64_t seq,
                          Clock::time_point now, const char* why, ScanResult& result) {
  auto& st = arq_[key];
  if (st.seq != seq || st.attempts == 0) st = ArqState{seq, 0, Clock::time_point{}};
  if (now < st.not_before) {
    // Backoff in progress (or the retransmitted copy is still in flight):
    // bound the caller's sleep to the gate, no new attempt.
    if (!result.head_delayed || st.not_before < result.next_visible)
      result.next_visible = st.not_before;
    result.head_delayed = true;
    return;
  }
  if (st.attempts >= retransmit_max_) {
    if (world_ != nullptr)
      world_->counters(owner_)[util::Counter::kArqEscalations] += 1;
    throw CommFailure("rank " + std::to_string(owner_) +
                      ": link-level retransmit budget exhausted after " +
                      std::to_string(st.attempts) + " attempts on stream (src=" +
                      std::to_string(src) + ", tag=" + std::to_string(tag) +
                      "), seq " + std::to_string(seq) + " (" + why + ")");
  }
  ++st.attempts;

  const auto rit = retained_.find(key);
  if (rit == retained_.end() || rit->second.empty() || rit->second.front().seq != seq) {
    throw CommFailure("rank " + std::to_string(owner_) +
                      ": no retained copy to retransmit for stream (src=" +
                      std::to_string(src) + ", tag=" + std::to_string(tag) +
                      "), seq " + std::to_string(seq) + " (" + why + ")");
  }
  const Retained& kept = rit->second.front();

  const double backoff_ms =
      retransmit_backoff_ms_ *
      static_cast<double>(1u << std::min(st.attempts - 1, kBackoffCapDoublings));
  st.not_before = now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(backoff_ms));
  if (world_ != nullptr) {
    auto& counters = world_->counters(owner_);
    counters[util::Counter::kArqNacks] += 1;
    counters[util::Counter::kArqBackoffMs] +=
        static_cast<std::int64_t>(std::llround(backoff_ms));
  }

  // The retransmitted copy crosses the same faulty wire: draw an independent
  // per-attempt fate so it too can be lost or corrupted (deterministically).
  FaultInjector::Fate fate;
  if (faulty_wire_)
    fate = injector_->retransmit_fate(owner_, src, tag, seq, st.attempts,
                                      kept.payload.size());
  if (!fate.lose) {
    Message copy;
    copy.src = src;
    copy.tag = tag;
    copy.payload = kept.payload;
    copy.seq = seq;
    copy.crc = kept.crc;
    copy.arrived_at = now;
    copy.visible_at = st.not_before;  // the repair lands after the backoff round trip
    if (fate.corrupt) {
      auto& byte = copy.payload[fate.corrupt_bit / 8];
      byte ^= static_cast<std::byte>(1u << (fate.corrupt_bit % 8));
    }
    queue_.push_back(std::move(copy));
    if (world_ != nullptr)
      world_->counters(owner_)[util::Counter::kArqRetransmits] += 1;
  }
  if (!result.head_delayed || st.not_before < result.next_visible)
    result.next_visible = st.not_before;
  result.head_delayed = true;
}

void Mailbox::ack_locked(std::uint64_t key, std::uint64_t acked) {
  if (!arq_enabled()) return;
  const auto rit = retained_.find(key);
  if (rit == retained_.end()) return;
  auto& kept = rit->second;
  while (!kept.empty() && kept.front().seq <= acked) {
    retained_bytes_ -= kept.front().payload.size();
    arq_pool_.release(std::move(kept.front().payload));
    kept.pop_front();
  }
  if (kept.empty()) retained_.erase(rit);
  const auto ait = arq_.find(key);
  if (ait != arq_.end() && ait->second.seq <= acked) arq_.erase(ait);
}

std::pair<Message, std::size_t> Mailbox::get_any_impl(std::span<const Want> wants) {
  std::unique_lock<std::mutex> lock(mutex_);
  const WaitingGuard waiting(waiting_, wants);

  const bool bounded = timeout_seconds_ > 0;
  const auto timeout_dur = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(timeout_seconds_));
  auto deadline = bounded ? Clock::now() + timeout_dur : Clock::time_point::max();
  int extensions = 0;

  for (;;) {
    if (aborted_) throw WorldAborted{};

    ScanResult scan = scan_locked(wants);
    if (scan.delivered) {
      // Successful delivery is this rank's heartbeat: peers blocked on a
      // deadline can tell a slow world from a dead one.
      if (world_ != nullptr) world_->beat(owner_);
      return {std::move(scan.msg), scan.want_index};
    }

    if (Clock::now() >= deadline) {
      if (world_ != nullptr) {
        // Rung 2: turn the raw deadline expiry into a structured verdict.
        if (const Rank dead = world_->first_dead_rank(); dead >= 0) {
          throw RankDead(dead, "rank " + std::to_string(dead) +
                                   " is dead (heartbeat verdict); rank " +
                                   std::to_string(owner_) + " blocked on " +
                                   wants_desc(wants));
        }
        if (extensions < kMaxSlowExtensions &&
            world_->beat_after(deadline - timeout_dur, owner_)) {
          // Slow, not dead: a peer made progress inside this window, so the
          // world is degraded rather than wedged -- extend and keep waiting.
          ++extensions;
          world_->counters(owner_)[util::Counter::kHeartbeatExtensions] += 1;
          deadline += timeout_dur;
          continue;
        }
      }
      // No heartbeat anywhere: assemble the deadlock diagnostic. Our own
      // state is summarised under our (held) lock; the rest of the world
      // via try_lock snapshots.
      std::string report = "comm timeout after " + std::to_string(timeout_seconds_) +
                           "s: rank " + std::to_string(owner_) + " blocked on " +
                           wants_desc(wants);
      report += "\n  " + status_line_locked();
      if (world_ != nullptr) report += world_->deadlock_report(owner_);
      throw CommTimeout(report);
    }
    // A delayed stream head, an ARQ backoff gate, or a finite deadline
    // bounds the sleep; the scan holds no iterators across the unlock, so
    // just re-scan after every wake.
    if (scan.head_delayed) {
      cv_.wait_until(lock, std::min(scan.next_visible, deadline));
    } else if (bounded) {
      cv_.wait_until(lock, deadline);
    } else {
      cv_.wait(lock);
    }
  }
}

Message Mailbox::get(Rank src, Tag tag) {
  const Want want{src, tag};
  return get_any_impl({&want, 1}).first;
}

std::pair<Message, std::size_t> Mailbox::get_any(std::span<const Want> wants) {
  return get_any_impl(wants);
}

void Mailbox::abort() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

std::string Mailbox::status_line_locked() const {
  std::ostringstream out;
  out << "rank " << owner_ << ": " << queue_.size() << " pending";
  if (retained_bytes_ > 0) out << ", " << retained_bytes_ << "B retained";
  if (!waiting_.empty()) {
    out << ", blocked on";
    for (const auto& [src, tag] : waiting_) out << " (src=" << src << ", tag=" << tag << ")";
  }
  // Per-stream depths of what IS queued -- the other half of "who is stuck
  // on whom": a deep unread stream names the receiver that never came.
  std::unordered_map<std::uint64_t, std::size_t> depth;
  for (const auto& m : queue_) ++depth[stream_key(m.src, m.tag)];
  std::size_t shown = 0;
  for (const auto& [key, count] : depth) {
    if (shown++ == 4) {
      out << " ...";
      break;
    }
    out << " [src=" << static_cast<Rank>(key >> 32)
        << ", tag=" << static_cast<Tag>(static_cast<std::uint32_t>(key)) << "]x" << count;
  }
  return out.str();
}

std::string Mailbox::status_line() const {
  const std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return "rank " + std::to_string(owner_) + ": <lock busy>";
  return status_line_locked();
}

}  // namespace dlouvain::comm
