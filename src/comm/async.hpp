// Awaitable handles for nonblocking receives.
//
// The in-process transport is eager: a send deposits its payload in the
// destination mailbox and returns, so only the receive side needs a handle.
// RecvHandle is a posted receive that has not yet matched: wait() blocks
// for it, and the free function wait_any drives a SET of posted receives to
// completion in ARRIVAL order via Mailbox::get_any -- the progress engine
// behind the collectives' arrival-order draining.
//
// Handles are created by Comm::irecv (comm.hpp); they carry pre-packed wire
// tags, so user code never constructs them directly.
//
// Interplay with the ARQ layer (mailbox.cpp, docs/FAULT_TOLERANCE.md rung 1):
// handles need no retransmit logic of their own. A RecvHandle only observes
// messages the mailbox DELIVERS, and delivery already sits downstream of the
// per-stream sequence check, the CRC check (on an injected wire), and the
// NACK/retransmit repair -- so a posted receive over a lossy wire simply
// completes later (after the backoff) with the clean payload, in unchanged
// per-(src, tag) FIFO order.
// If repair fails (retry budget exhausted, rank declared dead), wait()
// surfaces the escalated CommFailure/RankDead exactly like a blocking receive.
#pragma once

#include <chrono>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/mailbox.hpp"
#include "comm/message.hpp"

namespace dlouvain::comm {

/// A posted nonblocking receive. Movable, not copyable; one message per
/// handle. Completion is observed via wait()/wait_any; the payload is
/// consumed exactly once with take<T>(), which recycles the slab through the
/// world's BufferPool.
class RecvHandle {
 public:
  RecvHandle() = default;
  /// `packed_tag` is the wire tag (Comm::pack_tag output); `src` is the
  /// sender's rank, which is what messages are stamped with.
  RecvHandle(Mailbox& mailbox, BufferPool* pool, Rank src, Tag packed_tag)
      : mailbox_(&mailbox), pool_(pool), src_(src), tag_(packed_tag) {}

  RecvHandle(RecvHandle&&) = default;
  RecvHandle& operator=(RecvHandle&&) = default;
  RecvHandle(const RecvHandle&) = delete;
  RecvHandle& operator=(const RecvHandle&) = delete;

  [[nodiscard]] bool valid() const noexcept { return mailbox_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Block until the message arrives (MPI_Wait). Idempotent.
  void wait() {
    if (done_) return;
    if (!valid()) throw std::logic_error("RecvHandle::wait: empty handle");
    msg_ = mailbox_->get(src_, tag_);
    done_ = true;
  }

  /// When the completed message became deliverable at this mailbox (enqueue
  /// instant, pushed back by any injected delay) -- the raw input of the
  /// comm_hidden telemetry. Only meaningful once done().
  [[nodiscard]] std::chrono::steady_clock::time_point arrival() const {
    return msg_.effective_arrival();
  }

  /// Complete (blocking if needed) and consume the payload as typed data;
  /// the slab goes back to the pool. Call at most once.
  template <typename T>
  std::vector<T> take() {
    wait();
    auto data = from_bytes<T>(msg_.payload);
    if (pool_ != nullptr) pool_->release(std::move(msg_.payload));
    msg_.payload = {};
    return data;
  }

 private:
  friend std::size_t wait_any(std::span<RecvHandle* const> handles);

  Mailbox* mailbox_{nullptr};
  BufferPool* pool_{nullptr};
  Rank src_{-1};
  Tag tag_{0};
  bool done_{false};
  Message msg_{};
};

/// Block until any one of `handles` completes and return its index.
/// Already-completed handles win immediately (lowest index first); otherwise
/// whichever pending message is delivered first by arrival order wins. All
/// pending handles must target the same mailbox (one rank's posted
/// receives). If several handles want the same (src, tag) stream, the
/// earliest in span order matches first.
inline std::size_t wait_any(std::span<RecvHandle* const> handles) {
  if (handles.empty()) throw std::logic_error("wait_any: no handles");
  Mailbox* mailbox = nullptr;
  std::vector<Mailbox::Want> wants;
  std::vector<std::size_t> owner;  // handle index per want
  for (std::size_t i = 0; i < handles.size(); ++i) {
    RecvHandle* h = handles[i];
    if (h == nullptr || !h->valid())
      throw std::logic_error("wait_any: null or empty handle");
    if (h->done()) return i;
    if (mailbox == nullptr) {
      mailbox = h->mailbox_;
    } else if (mailbox != h->mailbox_) {
      throw std::logic_error("wait_any: handles must share one mailbox");
    }
    wants.push_back({h->src_, h->tag_});
    owner.push_back(i);
  }
  auto [msg, want_index] = mailbox->get_any(wants);
  RecvHandle* h = handles[owner[want_index]];
  h->msg_ = std::move(msg);
  h->done_ = true;
  return owner[want_index];
}

}  // namespace dlouvain::comm
