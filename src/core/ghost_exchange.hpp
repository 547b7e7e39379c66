// Per-iteration ghost field exchange (paper Algorithm 3 lines 4-5).
//
// A GhostField<T> holds one integer T per ghost vertex of a DistGraph and
// knows how to refresh all of them from their owners in one collective step.
// The structural lists from DistGraph's Algorithm-4 setup make this cheap:
// mirrors()[r] on this rank and ghosts_by_owner()[me] on rank r are the SAME
// list in the same order, so an update message needs no (vertex, value)
// pairs -- either the full value array aligned with that list (dense), or,
// once most vertices have stopped moving, just the changed entries as
// (list index, value) pairs (delta). Every message carries a one-element
// header tagging its format, so the sender picks per destination and per
// round: delta when 2 * changed entries <= kDeltaCrossover * list size (a
// delta entry costs two wire elements where a dense one costs one). The
// receiver ends up with the same ghost values either way.
//
// exchange_begin() leaves the collective in flight so the caller can compute
// while messages travel; exchange_finish() completes it. The distributed
// sweep hides the exchange behind its interior micro-batches this way.
//
// The field also records which of its slots changed in the last exchange
// (last_changes(), with the previous value) -- the hook the distributed
// engine's incremental community-cache bookkeeping hangs off.
//
// Both uses are std::int64_t: T = CommunityId for the Louvain community
// push, and ghost colors in the distance-1 coloring. T must be integral: a
// delta entry stores its list index in a T, and the header tag is a T.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "comm/comm.hpp"
#include "graph/dist_graph.hpp"
#include "util/types.hpp"

namespace dlouvain::core {

/// A destination's update goes delta when
///   2 * changed_entries <= kDeltaCrossover * mirror_list_size.
inline constexpr double kDeltaCrossover = 0.5;

template <typename T>
class GhostField {
  static_assert(std::is_integral_v<T>, "GhostField values are integers");

 public:
  /// A slot the last exchange changed, with the value it replaced.
  struct SlotChange {
    std::int64_t slot;
    T old_value;
  };

  /// All ghost slots start at `fill`; delta senders assume the receiver
  /// holds `fill` too, so the first exchange may already ship deltas.
  GhostField(const graph::DistGraph& g, const T& fill)
      : graph_(&g),
        values_(g.ghosts().size(), fill),
        prev_owned_(static_cast<std::size_t>(g.local_count()), fill) {
    init_offsets();
  }

  /// Identity start: every ghost slot holds the ghost's own global id --
  /// the "each vertex in its own community" phase-start state.
  static GhostField identity(const graph::DistGraph& g) {
    GhostField field(g, T{});
    std::copy(g.ghosts().begin(), g.ghosts().end(), field.values_.begin());
    for (VertexId lv = 0; lv < g.local_count(); ++lv)
      field.prev_owned_[static_cast<std::size_t>(lv)] = static_cast<T>(g.to_global(lv));
    return field;
  }

  /// Collective: push the current value of every mirrored owned vertex to
  /// the ranks ghosting it, and absorb their pushes into our slots. `owned`
  /// maps local vertex index -> value. `use_neighbor` picks the sparse
  /// neighbourhood collective (the paper's planned MPI-3 upgrade) over the
  /// dense all-to-all baseline; the payloads are the same either way.
  void exchange(comm::Comm& comm, std::span<const T> owned, bool use_neighbor = true) {
    exchange_begin(comm, owned, use_neighbor);
    exchange_finish(comm);
  }

  /// First half of exchange(): deposit every outgoing update and post the
  /// receives. The collective stays in flight -- the caller computes, then
  /// calls exchange_finish().
  void exchange_begin(comm::Comm& comm, std::span<const T> owned,
                      bool use_neighbor = true) {
    if (pending_.has_value())
      throw std::logic_error("GhostField: exchange already in flight");
    changes_.clear();

    const auto build_payload = [&](Rank r) {
      const auto& mirror_list = graph_->mirrors()[static_cast<std::size_t>(r)];
      std::vector<T> payload;
      std::size_t changed = 0;
      for (const VertexId gv : mirror_list) {
        const auto lv = static_cast<std::size_t>(graph_->to_local(gv));
        if (owned[lv] != prev_owned_[lv]) ++changed;
      }
      if (2.0 * static_cast<double>(changed) <=
          kDeltaCrossover * static_cast<double>(mirror_list.size())) {
        payload.reserve(1 + 2 * changed);
        payload.push_back(static_cast<T>(1));
        for (std::size_t i = 0; i < mirror_list.size(); ++i) {
          const auto lv = static_cast<std::size_t>(graph_->to_local(mirror_list[i]));
          if (owned[lv] != prev_owned_[lv]) {
            payload.push_back(static_cast<T>(i));
            payload.push_back(owned[lv]);
          }
        }
        return payload;
      }
      payload.reserve(1 + mirror_list.size());
      payload.push_back(static_cast<T>(0));
      for (const VertexId gv : mirror_list)
        payload.push_back(owned[static_cast<std::size_t>(graph_->to_local(gv))]);
      return payload;
    };

    // Wire-format accounting: bytes split by format so the manifest shows
    // what the delta pick actually saves, records = ghost values carried.
    // Counts into this rank's block on this rank's thread (single-writer).
    util::CounterBlock& ctr = comm.counters();
    const auto count_payload = [&ctr](const std::vector<T>& payload) {
      const auto bytes = static_cast<std::int64_t>(payload.size() * sizeof(T));
      if (!payload.empty() && payload.front() == static_cast<T>(1)) {
        ctr[util::Counter::kGhostBytesDelta] += bytes;
        ctr[util::Counter::kGhostRecordsShipped] +=
            static_cast<std::int64_t>((payload.size() - 1) / 2);
      } else {
        ctr[util::Counter::kGhostBytesDense] += bytes;
        ctr[util::Counter::kGhostRecordsShipped] +=
            static_cast<std::int64_t>(payload.empty() ? 0 : payload.size() - 1);
      }
    };

    if (use_neighbor) {
      const auto& neighbors = graph_->neighbor_ranks();
      std::vector<std::vector<T>> outbox;
      outbox.reserve(neighbors.size());
      for (const Rank r : neighbors) {
        outbox.push_back(build_payload(r));
        count_payload(outbox.back());
      }
      remember_sent(owned);
      pending_.emplace(comm.ineighbor_alltoallv<T>(neighbors, std::move(outbox)));
      pending_neighbor_ = true;
    } else {
      const int p = comm.size();
      std::vector<std::vector<T>> outbox(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        if (r == comm.rank()) continue;
        outbox[static_cast<std::size_t>(r)] = build_payload(static_cast<Rank>(r));
        count_payload(outbox[static_cast<std::size_t>(r)]);
      }
      remember_sent(owned);
      pending_.emplace(comm.ialltoallv<T>(std::move(outbox)));
      pending_neighbor_ = false;
    }
  }

  /// Second half of exchange(): complete the in-flight collective (peer
  /// buffers drain in arrival order) and absorb every update in FIXED peer
  /// order -- so changes_ ordering, and everything downstream of it, is
  /// independent of message timing. Records the hidden seconds.
  void exchange_finish(comm::Comm& comm) {
    if (!pending_.has_value())
      throw std::logic_error("GhostField: no exchange in flight");
    pending_->wait();
    hidden_seconds_ = pending_->hidden_seconds();
    const auto inbox = pending_->take();
    if (pending_neighbor_) {
      const auto& neighbors = graph_->neighbor_ranks();
      for (std::size_t i = 0; i < neighbors.size(); ++i)
        absorb_from(neighbors[i], inbox[i]);
    } else {
      for (std::size_t r = 0; r < inbox.size(); ++r) {
        if (static_cast<Rank>(r) != comm.rank())
          absorb_from(static_cast<Rank>(r), inbox[r]);
      }
    }
    pending_.reset();
  }

  /// Exchange latency of the last completed exchange that overlapped the
  /// caller's compute (overlap telemetry; 0 before the first one).
  [[nodiscard]] double last_hidden_seconds() const noexcept { return hidden_seconds_; }

  /// Slots the last exchange() call overwrote with a DIFFERENT value, with
  /// the value each held before (in ascending slot order per source rank).
  [[nodiscard]] const std::vector<SlotChange>& last_changes() const noexcept {
    return changes_;
  }

  /// All ghost values, indexed by ghost slot (aligned with
  /// DistGraph::ghosts()).
  [[nodiscard]] const std::vector<T>& values() const { return values_; }

 private:
  void store_slot(std::size_t slot, const T& value) {
    if (values_[slot] != value) {
      changes_.push_back(SlotChange{static_cast<std::int64_t>(slot), values_[slot]});
      values_[slot] = value;
    }
  }

  void absorb_from(Rank r, const std::vector<T>& received) {
    const auto base = offsets_[static_cast<std::size_t>(r)];
    const auto count = graph_->ghosts_by_owner()[static_cast<std::size_t>(r)].size();
    if (count == 0 && received.empty()) return;
    if (received.empty())
      throw std::logic_error("GhostField: missing update header");
    if (received.front() == static_cast<T>(0)) {
      if (received.size() != count + 1)
        throw std::logic_error("GhostField: dense update length mismatch");
      for (std::size_t i = 0; i < count; ++i) store_slot(base + i, received[i + 1]);
      return;
    }
    if (received.front() != static_cast<T>(1) || received.size() % 2 != 1)
      throw std::logic_error("GhostField: malformed delta update");
    for (std::size_t i = 1; i + 1 < received.size(); i += 2) {
      const auto idx = static_cast<std::size_t>(received[i]);
      if (idx >= count) throw std::logic_error("GhostField: delta index out of range");
      store_slot(base + idx, received[i + 1]);
    }
  }

  void init_offsets() {
    offsets_.resize(graph_->ghosts_by_owner().size() + 1, 0);
    for (std::size_t r = 0; r < graph_->ghosts_by_owner().size(); ++r)
      offsets_[r + 1] = offsets_[r] + graph_->ghosts_by_owner()[r].size();
  }

  /// Snapshot what this round told the world, so the next round's deltas are
  /// relative to what every receiver now holds.
  void remember_sent(std::span<const T> owned) {
    std::copy(owned.begin(), owned.end(), prev_owned_.begin());
  }

  const graph::DistGraph* graph_;
  std::vector<T> values_;             ///< by ghost slot
  std::vector<T> prev_owned_;         ///< by local vertex: value last sent
  std::vector<std::size_t> offsets_;  ///< slot offset per owner rank
  std::vector<SlotChange> changes_;   ///< slots the last exchange rewrote
  std::optional<comm::PendingAlltoallv<T>> pending_;  ///< in-flight collective
  bool pending_neighbor_{false};      ///< topology of pending_
  double hidden_seconds_{0};          ///< last completed exchange's hidden time
};

/// The Louvain community field: ghosts start in their own community.
class GhostCommunities : public GhostField<CommunityId> {
 public:
  explicit GhostCommunities(const graph::DistGraph& g)
      : GhostField<CommunityId>(GhostField<CommunityId>::identity(g)) {}
};

}  // namespace dlouvain::core
