#include "core/rebuild.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/segmented.hpp"
#include "util/trace.hpp"

namespace dlouvain::core {

RebuildOutput rebuild(comm::Comm& comm, const graph::DistGraph& g,
                      std::span<const CommunityId> owned_community,
                      const GhostCommunities& ghosts, const CommunityLedger& ledger,
                      util::ThreadPool* pool, bool build_graph, int phase) {
  const int p = comm.size();
  util::TraceBuffer* const tb = comm.trace();
  const auto local_n = static_cast<std::size_t>(g.local_count());
  const auto& ghost_comm = ghosts.values();
  // The dst_slots() space: owned vertex lv at slot lv, ghost i at local_n + i.
  const std::size_t slot_count = local_n + ghost_comm.size();
  const auto community_at = [&](std::size_t slot) {
    return slot < local_n ? owned_community[slot] : ghost_comm[slot - local_n];
  };

  // Steps 1-3: surviving local communities, renumbered 0..n_i-1 in ascending
  // old-id order, then shifted into the global meta-vertex range by a
  // parallel prefix sum. A community survives iff it still has members
  // anywhere; the ledger's delta-maintained sizes are authoritative at its
  // owner. One allgather of the survivor counts gives both the exclusive
  // prefix (this rank's offset) and the total.
  std::vector<VertexId> survivor_of(local_n, kInvalidVertex);
  VertexId survivors = 0;
  VertexId offset = 0;
  VertexId new_global_n = 0;
  {
    const util::TraceSpan span(tb, "rebuild_renumber", "collective", phase);
    for (std::size_t lc = 0; lc < local_n; ++lc) {
      if (ledger.owned()[lc].size > 0) survivor_of[lc] = survivors++;
    }
    const auto counts = comm.allgather(survivors);
    for (int r = 0; r < p; ++r) {
      if (r < comm.rank()) offset += counts[static_cast<std::size_t>(r)];
      new_global_n += counts[static_cast<std::size_t>(r)];
    }
  }
  const auto survivor = [&](CommunityId c) {
    const VertexId id = survivor_of[static_cast<std::size_t>(g.to_local(c))];
    if (id == kInvalidVertex)
      throw std::logic_error("rebuild: dead community referenced");
    return id;
  };

  // Step 4: resolve every slot's community to a dense KEY, once per slot:
  // owned survivor i is key i, the j-th remote community (ascending id) is
  // key survivors + j. meta_of_key holds each key's meta-vertex id; remote
  // ones are asked of their owners. Owner intervals are contiguous in id
  // space, so the sorted request list splits into per-owner runs, and the
  // positional replies, concatenated in rank order, line up with it.
  std::vector<std::int64_t> key_of_slot(slot_count);
  std::vector<VertexId> meta_of_key(static_cast<std::size_t>(survivors));
  std::iota(meta_of_key.begin(), meta_of_key.end(), offset);
  {
    const util::TraceSpan span(tb, "rebuild_resolve", "collective", phase);
    std::vector<CommunityId> remote;
    for (std::size_t s = 0; s < slot_count; ++s) {
      if (!g.owns(community_at(s))) remote.push_back(community_at(s));
    }
    std::sort(remote.begin(), remote.end());
    remote.erase(std::unique(remote.begin(), remote.end()), remote.end());

    std::vector<std::vector<CommunityId>> requests(static_cast<std::size_t>(p));
    for (const CommunityId c : remote)
      requests[static_cast<std::size_t>(g.owner(c))].push_back(c);
    const auto incoming = comm.alltoallv<CommunityId>(requests);

    std::vector<std::vector<VertexId>> replies(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      for (const CommunityId c : incoming[static_cast<std::size_t>(r)]) {
        if (!g.owns(c))
          throw std::logic_error("rebuild: peer asked about a community owned elsewhere");
        replies[static_cast<std::size_t>(r)].push_back(offset + survivor(c));
      }
    }
    const auto answers = comm.alltoallv<VertexId>(std::move(replies));
    for (int r = 0; r < p; ++r) {
      const auto& answer = answers[static_cast<std::size_t>(r)];
      if (answer.size() != requests[static_cast<std::size_t>(r)].size())
        throw std::logic_error("rebuild: resolve reply does not match its request");
      meta_of_key.insert(meta_of_key.end(), answer.begin(), answer.end());
    }

    for (std::size_t s = 0; s < slot_count; ++s) {
      const CommunityId c = community_at(s);
      key_of_slot[s] =
          g.owns(c) ? survivor(c)
                    : survivors + (std::lower_bound(remote.begin(), remote.end(), c) -
                                   remote.begin());
    }
  }

  RebuildOutput out;
  out.new_global_n = new_global_n;
  out.new_vertex_of_current.resize(local_n);
  for (std::size_t lv = 0; lv < local_n; ++lv)
    out.new_vertex_of_current[lv] =
        meta_of_key[static_cast<std::size_t>(key_of_slot[lv])];
  if (!build_graph) return out;

  // Step 5: the partial edge list, coalesced to one arc per (meta-source,
  // meta-destination) pair. Weight conventions (see louvain/coarsen for the
  // serial twin): an intra-community arc between DISTINCT vertices is summed
  // at half weight toward the meta self loop -- both directions exist
  // somewhere in the distributed graph, so the halves sum back to the full
  // pair weight -- while an existing self loop keeps face value.
  //
  // Owned vertices are grouped by meta-source key (a counting sort keeps
  // each group in ascending local order) and each group's arcs are summed
  // per meta-destination key by a SegmentedAccumulator, so every pair's
  // weight folds in CSR order. Groups are threaded in static chunks and each
  // thread's output is appended in chunk order, so the emitted list is
  // identical at any thread count.
  std::vector<Edge> arcs;
  {
    const util::TraceSpan span(tb, "rebuild_coalesce", "compute", phase);
    const std::size_t keys = meta_of_key.size();
    // Group k holds members[group[k], group[k + 1]).
    std::vector<std::int64_t> group(keys + 1, 0);
    for (std::size_t lv = 0; lv < local_n; ++lv)
      ++group[static_cast<std::size_t>(key_of_slot[lv]) + 1];
    std::partial_sum(group.begin(), group.end(), group.begin());
    std::vector<VertexId> members(local_n);
    {
      std::vector<std::int64_t> fill(group.begin(), group.end() - 1);
      for (std::size_t lv = 0; lv < local_n; ++lv) {
        auto& next = fill[static_cast<std::size_t>(key_of_slot[lv])];
        members[static_cast<std::size_t>(next++)] = static_cast<VertexId>(lv);
      }
    }

    const int threads = pool == nullptr ? 1 : pool->num_threads();
    std::vector<util::SegmentedAccumulator<Weight>> sums(
        static_cast<std::size_t>(threads));
    std::vector<std::vector<Edge>> emitted(static_cast<std::size_t>(threads));
    const auto& row_offsets = g.local().offsets();
    const auto& half = g.local().edges();
    const auto& dst_slot = g.dst_slots();
    util::parallel_for(
        pool, static_cast<std::int64_t>(keys),
        [&](int tid, std::int64_t begin, std::int64_t end) {
          auto& acc = sums[static_cast<std::size_t>(tid)];
          auto& mine = emitted[static_cast<std::size_t>(tid)];
          for (std::int64_t k = begin; k < end; ++k) {
            const auto first = group[static_cast<std::size_t>(k)];
            const auto last = group[static_cast<std::size_t>(k) + 1];
            if (first == last) continue;
            acc.reset(keys);
            for (std::int64_t i = first; i < last; ++i) {
              const VertexId lv = members[static_cast<std::size_t>(i)];
              const auto row = static_cast<std::size_t>(lv);
              const auto a_end = static_cast<std::size_t>(row_offsets[row + 1]);
              for (auto a = static_cast<std::size_t>(row_offsets[row]); a < a_end; ++a) {
                const std::int64_t d = dst_slot[a];
                const std::int64_t key = key_of_slot[static_cast<std::size_t>(d)];
                const Weight w = half[a].weight;
                acc.add(key, key == k && d != lv ? w / 2 : w);
              }
            }
            const VertexId src = meta_of_key[static_cast<std::size_t>(k)];
            for (std::size_t seg = 0; seg < acc.segments(); ++seg) {
              const auto dst_key = static_cast<std::size_t>(acc.slots()[seg]);
              mine.push_back(Edge{src, meta_of_key[dst_key], acc.sums()[seg]});
            }
          }
        });
    arcs = std::move(emitted[0]);
    for (std::size_t t = 1; t < emitted.size(); ++t)
      arcs.insert(arcs.end(), emitted[t].begin(), emitted[t].end());
  }

  // Steps 6-7: ship each coalesced arc to its source's owner, which folds
  // the at most p partial sums of a pair in rank order and builds the CSR.
  {
    const util::TraceSpan span(tb, "rebuild_ship", "collective", phase);
    out.graph = graph::DistGraph::build(comm, graph::partition_even_vertices(new_global_n, p),
                                        std::move(arcs), /*symmetrize=*/false, pool);
  }
  return out;
}

}  // namespace dlouvain::core
