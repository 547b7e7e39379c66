// Comm: the per-rank communicator handle -- the project's MPI_COMM_WORLD.
// A (world, rank) pair whose calls are exactly the ones the engine, the
// tools and the benches make; docs/PORTING.md maps each to its MPI call.
//
// Point-to-point operations are buffered (a send copies the payload into the
// destination mailbox and returns immediately, like an eager-protocol
// MPI_Send), and receives match on (source, tag) with per-pair FIFO order.
//
// Collectives are implemented ON TOP of point-to-point messages, the way an
// MPI library implements them over its transport. They must be invoked by
// all ranks of the world in the same order -- the same usage contract MPI
// imposes. Reduction folds always run in rank order 0..p-1 on every rank, so
// floating-point collective results are bitwise identical across ranks.
//
// Tag space: user tags must be >= 0; negative tags are reserved for the
// collective implementations.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/async.hpp"
#include "comm/fault.hpp"
#include "comm/message.hpp"
#include "comm/world.hpp"

namespace dlouvain::comm {

namespace internal_tags {
// Distinct bases keep different collective kinds from ever cross-matching,
// which makes protocol bugs loud instead of silently reordering data.
inline constexpr Tag kBarrierBase = -1000;  // kBarrierBase - round
inline constexpr Tag kBcast = -2000;
inline constexpr Tag kAllgather = -3000;
inline constexpr Tag kGather = -4000;
inline constexpr Tag kAlltoallv = -5000;
inline constexpr Tag kNeighbor = -7000;
inline constexpr Tag kAllreduceVec = -7500;
}  // namespace internal_tags

/// An in-flight personalized exchange, returned by Comm::ialltoallv /
/// Comm::ineighbor_alltoallv. The sends have already been deposited; the
/// receives are posted but not yet matched. wait() completes the exchange,
/// draining the peer buffers in ARRIVAL order (whichever lands first is
/// unpacked first -- no head-of-line blocking on the slowest peer) and
/// records how much of the exchange's latency elapsed before the caller
/// started waiting (hidden_seconds -- the overlap telemetry's raw metric).
template <typename T>
class PendingAlltoallv {
 public:
  PendingAlltoallv() = default;
  PendingAlltoallv(PendingAlltoallv&&) = default;
  PendingAlltoallv& operator=(PendingAlltoallv&&) = default;

  /// Complete the exchange (blocking), then finalize hidden_seconds: the
  /// sum, per peer buffer, of the in-flight span from launch to the earlier
  /// of "this buffer arrived" and "caller started waiting" -- exchange
  /// latency that overlapped the caller's own work instead of a blocking
  /// wait (a buffer already delivered at launch contributes zero).
  /// Idempotent.
  void wait() {
    if (finished_) return;
    const auto wait_begin = Clock::now();
    std::vector<RecvHandle*> pending;
    std::vector<std::size_t> orig;
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      pending.push_back(&handles_[i]);
      orig.push_back(i);
    }
    while (!pending.empty()) {
      const std::size_t i = wait_any(std::span<RecvHandle* const>(pending));
      absorb(orig[i]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      orig.erase(orig.begin() + static_cast<std::ptrdiff_t>(i));
    }
    hidden_seconds_ = 0;
    for (const auto arrival : arrivals_) {
      const auto covered = arrival < wait_begin ? arrival : wait_begin;
      if (covered > launch_) hidden_seconds_ += sec(covered - launch_);
    }
    finished_ = true;
  }

  /// Complete and surrender the inbox: slot [i] holds what peer i sent
  /// (rank-indexed for ialltoallv, neighbour-indexed for the sparse form).
  std::vector<std::vector<T>> take() {
    wait();
    return std::move(inbox_);
  }

  /// Exchange latency that elapsed before the caller blocked (0 until
  /// wait() ran; ~0 when wait() directly follows the launch).
  [[nodiscard]] double hidden_seconds() const noexcept { return hidden_seconds_; }

 private:
  friend class Comm;
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] static double sec(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  void absorb(std::size_t i) {
    inbox_[slots_[i]] = handles_[i].template take<T>();
    arrivals_.push_back(handles_[i].arrival());
  }

  std::vector<RecvHandle> handles_;  ///< one posted receive per remote peer
  std::vector<std::size_t> slots_;   ///< inbox slot per handle
  std::vector<std::vector<T>> inbox_;
  std::vector<Clock::time_point> arrivals_;  ///< delivery instant per absorbed buffer
  bool finished_{false};
  Clock::time_point launch_{};
  double hidden_seconds_{0};
};

class Comm {
 public:
  Comm(World& world, Rank rank) : world_(&world), rank_(rank) {}

  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return world_->size(); }
  [[nodiscard]] bool is_root() const noexcept { return rank_ == 0; }

  /// This rank's counter block. Only call from the owning rank's thread --
  /// the block is deliberately not atomic.
  [[nodiscard]] util::CounterBlock& counters() { return world_->counters(rank_); }
  /// This rank's trace ring, or nullptr when tracing is off.
  [[nodiscard]] util::TraceBuffer* trace() const { return world_->trace(rank_); }

  /// Crash trigger for deterministic fault injection: algorithm code calls
  /// this at well-defined progress points ({phase, iteration}); if the
  /// world's FaultPlan pins a crash of this rank there, the rank dies.
  /// Transient crashes throw RankCrashed (retryable at the same world
  /// size); permanent kills record the death in the world's heartbeat lane
  /// and throw RankDead, the rung-2 verdict that tells the recovery driver
  /// to shrink rather than retry. No-op (one atomic-free null check)
  /// without injection.
  void fault_point(int phase, int iteration = 0) {
    auto* injector = world_->injector();
    if (injector == nullptr) return;
    switch (injector->should_crash(rank_, phase, iteration)) {
      case FaultInjector::CrashKind::kNone:
        return;
      case FaultInjector::CrashKind::kTransient:
        throw RankCrashed("rank " + std::to_string(rank_) +
                          ": injected crash at phase " + std::to_string(phase) +
                          ", iteration " + std::to_string(iteration));
      case FaultInjector::CrashKind::kPermanent:
        world_->declare_dead(rank_);
        throw RankDead(rank_,
                       "rank " + std::to_string(rank_) +
                           ": injected permanent death at phase " +
                           std::to_string(phase) + ", iteration " +
                           std::to_string(iteration));
    }
  }

  // --- point to point -------------------------------------------------

  /// Buffered send of raw bytes; the message is stamped with the sender's
  /// rank.
  void send_bytes(Rank dst, Tag tag, std::vector<std::byte> payload) {
    check_rank(dst);
    // Plain increments into the SENDER's block: send_bytes always runs on
    // the sending rank's thread (single-writer contract, util/metrics.hpp).
    util::CounterBlock& ctr = world_->counters(rank_);
    ctr[util::Counter::kMessages] += 1;
    ctr[util::Counter::kBytes] += static_cast<std::int64_t>(payload.size());
    // Every send doubles as this rank's heartbeat for the rung-2 lane.
    world_->beat(rank_);
    world_->mailbox(dst).put(Message{rank_, pack_tag(tag), std::move(payload)});
  }

  /// Blocking receive of raw bytes from (src, tag).
  std::vector<std::byte> recv_bytes(Rank src, Tag tag) {
    check_rank(src);
    return world_->mailbox(rank_).get(src, pack_tag(tag)).payload;
  }

  /// Typed buffered send of a contiguous range. The payload slab is
  /// recycled through the world's BufferPool (the typed receive paths hand
  /// it back after unpacking), so steady-state typed traffic allocates
  /// nothing.
  template <typename T>
  void send(Rank dst, Tag tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "message elements must be trivially copyable");
    std::vector<std::byte> bytes = world_->pool().acquire(data.size_bytes());
    if (!bytes.empty()) std::memcpy(bytes.data(), data.data(), bytes.size());
    send_bytes(dst, tag, std::move(bytes));
  }

  template <typename T>
  void send(Rank dst, Tag tag, const std::vector<T>& data) {
    send<T>(dst, tag, std::span<const T>(data));
  }

  /// Typed send of a single value.
  template <typename T>
  void send_value(Rank dst, Tag tag, const T& value) {
    send<T>(dst, tag, std::span<const T>(&value, 1));
  }

  /// Typed blocking receive. Returns the payload slab to the BufferPool
  /// after unpacking (the other half of send's pooled path).
  template <typename T>
  std::vector<T> recv(Rank src, Tag tag) {
    auto bytes = recv_bytes(src, tag);
    auto data = from_bytes<T>(bytes);
    world_->pool().release(std::move(bytes));
    return data;
  }

  /// Typed blocking receive of exactly one value.
  template <typename T>
  T recv_value(Rank src, Tag tag) {
    auto data = recv<T>(src, tag);
    if (data.size() != 1) throw std::logic_error("recv_value: payload is not one element");
    return data[0];
  }

  // --- nonblocking point to point ---------------------------------------

  /// Post a nonblocking receive for (src, tag). Complete via the handle's
  /// wait()/take<T>() or the free wait_any (async.hpp).
  [[nodiscard]] RecvHandle irecv(Rank src, Tag tag) {
    check_rank(src);
    return RecvHandle(world_->mailbox(rank_), &world_->pool(), src, pack_tag(tag));
  }

  // --- collectives ------------------------------------------------------

  /// Dissemination barrier: O(p log p) messages, round-tagged.
  void barrier() {
    const int p = size();
    int round = 0;
    for (int step = 1; step < p; step <<= 1, ++round) {
      const Rank to = static_cast<Rank>((rank_ + step) % p);
      const Rank from = static_cast<Rank>((rank_ - step + p) % p);
      const Tag tag = internal_tags::kBarrierBase - round;
      send_bytes(to, tag, {});
      (void)recv_bytes(from, tag);
    }
  }

  /// Root's buffer is distributed to every rank; all ranks return it.
  /// Canonical binomial tree (O(log p) rounds): with virtual ranks placing
  /// the root at 0, rank vr receives from vr minus its lowest set bit, then
  /// forwards to vr + mask for every mask below that bit.
  template <typename T>
  std::vector<T> broadcast(std::vector<T> data, Rank root = 0) {
    check_rank(root);
    const int p = size();
    const int vr = (rank_ - root + p) % p;

    int mask = 1;
    while (mask < p) {
      if (vr & mask) {
        const Rank parent = static_cast<Rank>((vr - mask + root) % p);
        data = recv<T>(parent, internal_tags::kBcast);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vr + mask < p) {
        const Rank child = static_cast<Rank>((vr + mask + root) % p);
        send<T>(child, internal_tags::kBcast, data);
      }
      mask >>= 1;
    }
    return data;
  }

  /// Gather one value per rank; every rank returns the rank-indexed vector.
  template <typename T>
  std::vector<T> allgather(const T& value) {
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) send_value<T>(r, internal_tags::kAllgather, value);
    }
    std::vector<T> out(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(rank_)] = value;
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) out[static_cast<std::size_t>(r)] = recv_value<T>(r, internal_tags::kAllgather);
    }
    return out;
  }

  /// Gather variable-length buffers; every rank returns the concatenation in
  /// rank order. If `counts` is non-null it receives each rank's length.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local,
                            std::vector<std::size_t>* counts = nullptr) {
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) send<T>(r, internal_tags::kAllgather, local);
    }
    std::vector<std::vector<T>> parts(static_cast<std::size_t>(size()));
    parts[static_cast<std::size_t>(rank_)].assign(local.begin(), local.end());
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) parts[static_cast<std::size_t>(r)] = recv<T>(r, internal_tags::kAllgather);
    }
    std::vector<T> out;
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    out.reserve(total);
    if (counts) counts->clear();
    for (const auto& part : parts) {
      if (counts) counts->push_back(part.size());
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& local,
                            std::vector<std::size_t>* counts = nullptr) {
    return allgatherv<T>(std::span<const T>(local), counts);
  }

  /// Gather variable-length buffers at `root`; non-roots return empty.
  /// Receives land in rank order, so each part is appended straight into
  /// its rank-ordered position -- one pass, no staging copy.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> local, Rank root = 0) {
    check_rank(root);
    if (rank_ != root) {
      send<T>(root, internal_tags::kGather, local);
      return {};
    }
    std::vector<T> ordered;
    for (Rank r = 0; r < size(); ++r) {
      if (r == root) {
        ordered.insert(ordered.end(), local.begin(), local.end());
      } else {
        const auto part = recv<T>(r, internal_tags::kGather);
        ordered.insert(ordered.end(), part.begin(), part.end());
      }
    }
    return ordered;
  }

  template <typename T>
  std::vector<T> gatherv(const std::vector<T>& local, Rank root = 0) {
    return gatherv<T>(std::span<const T>(local), root);
  }

  /// Generic all-reduce: every rank folds contributions in rank order with
  /// `op`, so all ranks compute the identical result.
  template <typename T, typename Op>
  T allreduce(const T& local, Op op) {
    const auto contributions = allgather(local);
    T acc = contributions[0];
    for (std::size_t i = 1; i < contributions.size(); ++i) acc = op(acc, contributions[i]);
    return acc;
  }

  template <typename T>
  T allreduce_sum(const T& local) {
    return allreduce(local, [](const T& a, const T& b) { return a + b; });
  }

  template <typename T>
  T allreduce_max(const T& local) {
    return allreduce(local, [](const T& a, const T& b) { return a < b ? b : a; });
  }

  /// Element-wise sum of equal-length vectors across ranks. Each peer's
  /// contribution is streamed through the fold as it is received instead of
  /// materializing the p*n allgatherv concatenation, so peak memory is O(n)
  /// rather than O(p*n). The fold stays in rank order 0..p-1, so the result
  /// is still bitwise identical on every rank.
  template <typename T>
  std::vector<T> allreduce_sum_vec(const std::vector<T>& local) {
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) send<T>(r, internal_tags::kAllreduceVec, local);
    }
    std::vector<T> out(local.size(), T{});
    for (Rank r = 0; r < size(); ++r) {
      if (r == rank_) {
        for (std::size_t i = 0; i < local.size(); ++i) out[i] += local[i];
      } else {
        const auto part = recv<T>(r, internal_tags::kAllreduceVec);
        if (part.size() != local.size())
          throw std::logic_error("allreduce_sum_vec: mismatched vector lengths");
        for (std::size_t i = 0; i < local.size(); ++i) out[i] += part[i];
      }
    }
    return out;
  }

  /// Exclusive prefix sum: rank r returns sum of ranks [0, r). Rank 0 gets T{}.
  /// This is the paper's "parallel prefix sum" used for global community
  /// renumbering (graph reconstruction step 3).
  template <typename T>
  T exscan_sum(const T& local) {
    const auto contributions = allgather(local);
    T acc{};
    for (Rank r = 0; r < rank_; ++r) acc += contributions[static_cast<std::size_t>(r)];
    return acc;
  }

  /// Launch a personalized all-to-all of variable-length buffers without
  /// blocking: outbox[r] goes to rank r; the returned operation's inbox slot
  /// [r] will hold what rank r sent here. The self slot is moved through
  /// directly without touching the mailbox. Complete with wait()/take();
  /// replies are drained in arrival order, not rank order.
  template <typename T>
  PendingAlltoallv<T> ialltoallv(std::vector<std::vector<T>> outbox) {
    if (outbox.size() != static_cast<std::size_t>(size()))
      throw std::logic_error("alltoallv: outbox must have one slot per rank");
    PendingAlltoallv<T> op;
    op.inbox_.resize(static_cast<std::size_t>(size()));
    for (Rank r = 0; r < size(); ++r) {
      if (r == rank_) {
        op.inbox_[static_cast<std::size_t>(r)] = std::move(outbox[static_cast<std::size_t>(r)]);
      } else {
        send<T>(r, internal_tags::kAlltoallv, outbox[static_cast<std::size_t>(r)]);
      }
    }
    op.handles_.reserve(static_cast<std::size_t>(size()) - 1);
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) {
        op.handles_.push_back(irecv(r, internal_tags::kAlltoallv));
        op.slots_.push_back(static_cast<std::size_t>(r));
      }
    }
    // Launch is stamped AFTER the deposits: the send loop is paid CPU, not
    // in-flight latency, so hidden_seconds counts only what elapses once the
    // exchange is actually airborne (~0 when wait() directly follows).
    op.launch_ = std::chrono::steady_clock::now();
    return op;
  }

  /// Personalized all-to-all of variable-length buffers: outbox[r] goes to
  /// rank r; the result's slot [r] holds what rank r sent here.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(std::vector<std::vector<T>> outbox) {
    return ialltoallv<T>(std::move(outbox)).take();
  }

  /// Nonblocking sparse personalized exchange over a fixed neighbourhood --
  /// the analogue of MPI-3's MPI_Ineighbor_alltoallv, which the paper names
  /// as the planned scalability upgrade over dense all-to-all (Section VI).
  /// `neighbors` lists the peer ranks this rank exchanges with (sorted, no
  /// self); the neighbourhood must be SYMMETRIC across the world (if r lists
  /// s, s lists r), which holds for the ghost-exchange topology of a
  /// symmetric graph. outbox[i] goes to neighbors[i]; the returned
  /// operation's inbox slot [i] will hold what neighbors[i] sent here,
  /// drained in arrival order. Message count is O(sum of degrees) instead of
  /// O(p^2).
  template <typename T>
  PendingAlltoallv<T> ineighbor_alltoallv(std::span<const Rank> neighbors,
                                          std::vector<std::vector<T>> outbox) {
    if (outbox.size() != neighbors.size())
      throw std::logic_error("neighbor_alltoallv: one outbox slot per neighbour");
    PendingAlltoallv<T> op;
    op.inbox_.resize(neighbors.size());
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] == rank_)
        throw std::logic_error("neighbor_alltoallv: self must not be listed");
      send<T>(neighbors[i], internal_tags::kNeighbor, outbox[i]);
    }
    op.handles_.reserve(neighbors.size());
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      op.handles_.push_back(irecv(neighbors[i], internal_tags::kNeighbor));
      op.slots_.push_back(i);
    }
    // Post-deposit stamp, same rationale as ialltoallv.
    op.launch_ = std::chrono::steady_clock::now();
    return op;
  }

 private:
  // Logical tags live in [kMinInternalTag, kMaxUserTag); the wire tag is the
  // offset from the bottom of that range.
  static constexpr Tag kMinInternalTag = -8192;
  static constexpr Tag kMaxUserTag = 1 << 16;

  [[nodiscard]] static Tag pack_tag(Tag tag) {
    if (tag < kMinInternalTag || tag >= kMaxUserTag)
      throw std::out_of_range("tag outside [internal, 65536)");
    return tag - kMinInternalTag;
  }

  void check_rank(Rank r) const {
    if (r < 0 || r >= size()) throw std::out_of_range("rank out of range");
  }

  World* world_;
  Rank rank_;
};

}  // namespace dlouvain::comm
