#include "graph/dist_graph.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/parallel.hpp"

namespace dlouvain::graph {

DistGraph DistGraph::build(comm::Comm& comm, const Partition1D& part,
                           std::vector<Edge> edges, bool symmetrize,
                           util::ThreadPool* pool) {
  if (part.num_ranks() != comm.size())
    throw std::invalid_argument("DistGraph::build: partition rank count != comm size");

  const VertexId n = part.num_vertices();
  const int p = comm.size();

  // Route every arc to the owner of its source; with symmetrize on, each
  // undirected input edge contributes both directions.
  std::vector<std::vector<Edge>> outbox(static_cast<std::size_t>(p));
  for (const Edge& e : edges) {
    if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n)
      throw std::out_of_range("DistGraph::build: edge endpoint out of range");
    outbox[static_cast<std::size_t>(part.owner(e.src))].push_back(e);
    if (symmetrize && e.src != e.dst)
      outbox[static_cast<std::size_t>(part.owner(e.dst))].push_back(Edge{e.dst, e.src, e.weight});
  }
  edges.clear();
  edges.shrink_to_fit();

  DistGraph g;
  g.rank_ = comm.rank();
  g.part_ = part;
  // Rows are the owned vertices; destinations stay global ids. Duplicate
  // arcs fold in arrival order -- source rank, then list order -- so the
  // graph does not depend on the thread count (DESIGN §6).
  g.local_ = assemble_rows(part.count(comm.rank()), part.begin(comm.rank()),
                           comm.alltoallv<Edge>(std::move(outbox)), pool);
  g.derive_from_rows(comm, pool);
  return g;
}

DistGraph DistGraph::from_replicated(comm::Comm& comm, const Csr& global,
                                     PartitionKind kind) {
  const VertexId n = global.num_vertices();
  DistGraph g;
  g.rank_ = comm.rank();
  g.part_ = kind == PartitionKind::kEvenVertices
                ? partition_even_vertices(n, comm.size())
                : partition_even_edges(n, comm.size(),
                                       [&](VertexId v) { return global.degree(v); });

  // Copy this rank's row block with rebased offsets. `global` must already
  // be in normal form (what build() would assemble), which is checked here
  // rather than re-established.
  const auto first = static_cast<std::size_t>(g.v_begin());
  const auto rows = static_cast<std::size_t>(g.local_count());
  const auto& offsets = global.offsets();
  const EdgeId base = offsets[first];
  std::vector<EdgeId> local_offsets(rows + 1);
  for (std::size_t lv = 0; lv <= rows; ++lv) local_offsets[lv] = offsets[first + lv] - base;
  std::vector<HalfEdge> half(global.edges().begin() + static_cast<std::ptrdiff_t>(base),
                             global.edges().begin() +
                                 static_cast<std::ptrdiff_t>(offsets[first + rows]));
  for (std::size_t lv = 0; lv < rows; ++lv) {
    for (auto a = local_offsets[lv]; a < local_offsets[lv + 1]; ++a) {
      const VertexId dst = half[static_cast<std::size_t>(a)].dst;
      if (dst < 0 || dst >= n)
        throw std::out_of_range("DistGraph::from_replicated: arc endpoint out of range");
      if (a > local_offsets[lv] && half[static_cast<std::size_t>(a) - 1].dst >= dst)
        throw std::invalid_argument(
            "DistGraph::from_replicated: row " + std::to_string(g.v_begin() + lv) +
            " is not strictly ascending by destination");
    }
  }
  g.local_ = Csr(g.local_count(), std::move(local_offsets), std::move(half));
  g.derive_from_rows(comm, nullptr);
  return g;
}

void DistGraph::derive_from_rows(comm::Comm& comm, util::ThreadPool* pool) {
  // Weighted degrees (global-id self loops detected against the global id).
  const VertexId lo = v_begin();
  degrees_.assign(static_cast<std::size_t>(local_count()), 0.0);
  util::parallel_for(pool, local_count(), [&](int, std::int64_t begin, std::int64_t end) {
    for (VertexId lv = begin; lv < end; ++lv) {
      const VertexId gv = lv + lo;
      Weight k = 0;
      for (const auto& e : local_.neighbors(lv)) k += e.dst == gv ? 2 * e.weight : e.weight;
      degrees_[static_cast<std::size_t>(lv)] = k;
    }
  });
  derive_totals(comm);
  discover_ghosts(comm);
}

void DistGraph::derive_totals(comm::Comm& comm) {
  // Serial sum in local-index order, then allreduced.
  Weight local_weight = 0;
  for (const Weight k : degrees_) local_weight += k;
  total_weight_ = comm.allreduce_sum(local_weight);
  // Every rank's arc count, folded in rank order.
  const auto arcs = comm.allgather(local_.num_arcs());
  global_arcs_ = 0;
  double max = 0;
  for (const EdgeId a : arcs) {
    global_arcs_ += a;
    max = std::max(max, static_cast<double>(a));
  }
  const auto sum = static_cast<double>(global_arcs_);
  arc_imbalance_ = sum > 0 ? max / (sum / static_cast<double>(arcs.size())) : 1.0;
}

namespace {

/// The run of the sorted global ids `ids` that rank r owns: owner intervals
/// are contiguous in id space, so it is one binary-searched range.
std::span<const VertexId> owned_run(const Partition1D& part,
                                    const std::vector<VertexId>& ids, Rank r) {
  const auto lo = std::lower_bound(ids.begin(), ids.end(), part.begin(r));
  const auto hi = std::lower_bound(lo, ids.end(), part.end(r));
  return {ids.data() + (lo - ids.begin()), static_cast<std::size_t>(hi - lo)};
}

}  // namespace

DistGraph DistGraph::with_edge_changes(comm::Comm& comm,
                                       std::span<const EdgeChange> changes,
                                       util::ThreadPool* pool) const {
  const VertexId n = part_.num_vertices();

  // Validate the batch shape locally; the list is replicated, so every rank
  // reaches the same verdict without a collective.
  for (const EdgeChange& c : changes) {
    if (c.u < 0 || c.u >= n || c.v < 0 || c.v >= n)
      throw std::invalid_argument("with_edge_changes: endpoint out of range");
    if (c.u == c.v)
      throw std::invalid_argument("with_edge_changes: self loops not supported");
    if (!c.remove && !(c.weight > 0))
      throw std::invalid_argument("with_edge_changes: added weight must be > 0");
  }

  // A batch of k edges must not cost a full rebuild of |arcs| -- shipping
  // and re-sorting every arc through build() dominates Session::update on
  // any real graph. Instead, only the touched CSR rows are merged. Rows are
  // in normal form (strictly ascending by destination; see assemble_rows),
  // which this function preserves, so each touched row is a small sorted
  // merge.
  //
  // Removals resolve against the pre-batch arc set, directions owned here.
  // Because rows are coalesced, each (src, dst) appears at most once: a
  // batch naming the same edge twice can match at most one arc, and the
  // excess is a batch error -- detected locally, agreed globally so every
  // rank throws (or none does), before anything is built.
  std::map<VertexId, std::vector<std::pair<VertexId, Weight>>> row_adds;
  std::map<VertexId, std::vector<VertexId>> row_removes;
  std::int64_t missing = 0;
  {
    std::map<std::pair<VertexId, VertexId>, std::int64_t> remove_counts;
    for (const EdgeChange& c : changes) {
      if (!c.remove) continue;
      if (owns(c.u)) ++remove_counts[{to_local(c.u), c.v}];
      if (owns(c.v)) ++remove_counts[{to_local(c.v), c.u}];
    }
    for (const auto& [arc, count] : remove_counts) {
      const auto row = local_.neighbors(arc.first);
      const auto it = std::lower_bound(
          row.begin(), row.end(), arc.second,
          [](const HalfEdge& e, VertexId dst) { return e.dst < dst; });
      const bool present = it != row.end() && it->dst == arc.second;
      if (present) row_removes[arc.first].push_back(arc.second);
      missing += count - (present ? 1 : 0);
    }
  }
  if (comm.allreduce_max<std::int64_t>(missing) > 0)
    throw std::invalid_argument(
        "with_edge_changes: batch removes an edge the graph does not have");

  // Additions after removals, in batch order (duplicate adds sum their
  // weights left to right, matching assemble_rows' arrival-order fold).
  for (const EdgeChange& c : changes) {
    if (c.remove) continue;
    if (owns(c.u)) row_adds[to_local(c.u)].push_back({c.v, c.weight});
    if (owns(c.v)) row_adds[to_local(c.v)].push_back({c.u, c.weight});
  }

  // Merge each touched row: drop removed arcs, fold additions into
  // surviving arcs or insert them sorted.
  std::map<VertexId, std::vector<HalfEdge>> new_rows;
  for (const auto& kv : row_removes) new_rows.emplace(kv.first, std::vector<HalfEdge>{});
  for (const auto& kv : row_adds) new_rows.emplace(kv.first, std::vector<HalfEdge>{});
  for (auto& [lv, merged] : new_rows) {
    const auto row = local_.neighbors(lv);
    merged.assign(row.begin(), row.end());
    if (const auto rit = row_removes.find(lv); rit != row_removes.end()) {
      for (const VertexId dst : rit->second) {
        const auto it = std::lower_bound(
            merged.begin(), merged.end(), dst,
            [](const HalfEdge& e, VertexId d) { return e.dst < d; });
        merged.erase(it);  // presence established above
      }
    }
    if (const auto ait = row_adds.find(lv); ait != row_adds.end()) {
      for (const auto& [dst, w] : ait->second) {
        const auto it = std::lower_bound(
            merged.begin(), merged.end(), dst,
            [](const HalfEdge& e, VertexId d) { return e.dst < d; });
        if (it != merged.end() && it->dst == dst)
          it->weight += w;
        else
          merged.insert(it, HalfEdge{dst, w});
      }
    }
  }

  // The ghost delta. Gained: remote destinations of added arcs that are not
  // ghosts yet. Lost: remote destinations of removed arcs that no arc of the
  // new slice references -- looked for only when the batch removes a
  // remote arc, with one pass over the old slots of untouched rows.
  const VertexId local_n = local_count();
  const auto ghost_base = static_cast<std::int64_t>(local_n);
  const auto& old_offsets = local_.offsets();
  const auto& old_half = local_.edges();
  std::vector<VertexId> gained;
  for (const auto& [lv, adds] : row_adds) {
    for (const auto& [dst, w] : adds) {
      if (!owns(dst) && ghost_slot(dst) < 0) gained.push_back(dst);
    }
  }
  std::sort(gained.begin(), gained.end());
  gained.erase(std::unique(gained.begin(), gained.end()), gained.end());
  std::vector<VertexId> lost;
  for (const auto& [lv, dsts] : row_removes) {
    for (const VertexId dst : dsts) {
      if (!owns(dst)) lost.push_back(dst);
    }
  }
  if (!lost.empty()) {
    std::vector<char> unreferenced(ghosts_.size(), 0);
    for (const VertexId gv : lost) unreferenced[static_cast<std::size_t>(ghost_slot(gv))] = 1;
    auto touched = new_rows.begin();
    for (VertexId lv = 0; lv < local_n; ++lv) {
      if (touched != new_rows.end() && touched->first == lv) {
        for (const auto& e : touched->second) {
          if (owns(e.dst)) continue;
          if (const auto slot = ghost_slot(e.dst); slot >= 0)
            unreferenced[static_cast<std::size_t>(slot)] = 0;
        }
        ++touched;
        continue;
      }
      for (auto a = old_offsets[static_cast<std::size_t>(lv)];
           a < old_offsets[static_cast<std::size_t>(lv) + 1]; ++a) {
        const std::int64_t slot = dst_slots_[static_cast<std::size_t>(a)];
        if (slot >= ghost_base) unreferenced[static_cast<std::size_t>(slot - ghost_base)] = 0;
      }
    }
    std::sort(lost.begin(), lost.end());
    lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
    std::erase_if(lost, [&](VertexId gv) {
      return unreferenced[static_cast<std::size_t>(ghost_slot(gv))] == 0;
    });
  }

  DistGraph g;
  g.rank_ = rank_;
  g.part_ = part_;

  // The new ghost list, a sorted merge of the surviving old ghosts and the
  // gained ones, and where each old slot moved (-1: lost).
  std::vector<std::int64_t> moved_to(ghosts_.size(), -1);
  g.ghosts_.reserve(ghosts_.size() + gained.size() - lost.size());
  {
    auto next_gained = gained.begin();
    auto next_lost = lost.begin();
    for (std::size_t i = 0; i < ghosts_.size(); ++i) {
      for (; next_gained != gained.end() && *next_gained < ghosts_[i]; ++next_gained)
        g.ghosts_.push_back(*next_gained);
      if (next_lost != lost.end() && *next_lost == ghosts_[i]) {
        ++next_lost;
        continue;
      }
      moved_to[i] = static_cast<std::int64_t>(g.ghosts_.size());
      g.ghosts_.push_back(ghosts_[i]);
    }
    g.ghosts_.insert(g.ghosts_.end(), next_gained, gained.end());
  }

  // The new slice in one pass over the rows: each run of untouched rows is
  // one block copy with its dst slots remapped; a touched row comes from its
  // merge, its remote arcs searched in the new ghost list.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(local_n) + 1, 0);
  {
    EdgeId shift = 0;
    auto touched = new_rows.begin();
    for (VertexId lv = 0; lv < local_n; ++lv) {
      const auto row = static_cast<std::size_t>(lv);
      if (touched != new_rows.end() && touched->first == lv) {
        shift += static_cast<EdgeId>(touched->second.size()) -
                 (old_offsets[row + 1] - old_offsets[row]);
        ++touched;
      }
      offsets[row + 1] = old_offsets[row + 1] + shift;
    }
  }
  std::vector<HalfEdge> half(static_cast<std::size_t>(offsets.back()));
  g.dst_slots_.resize(half.size());
  util::parallel_for(pool, local_n, [&](int, std::int64_t begin, std::int64_t end) {
    auto touched = new_rows.lower_bound(begin);
    for (VertexId lv = begin; lv < end;) {
      const VertexId stop =
          touched != new_rows.end() && touched->first < end ? touched->first : end;
      auto out = static_cast<std::size_t>(offsets[static_cast<std::size_t>(lv)]);
      const auto from = static_cast<std::size_t>(old_offsets[static_cast<std::size_t>(lv)]);
      const auto to = static_cast<std::size_t>(old_offsets[static_cast<std::size_t>(stop)]);
      std::copy(old_half.begin() + static_cast<std::ptrdiff_t>(from),
                old_half.begin() + static_cast<std::ptrdiff_t>(to),
                half.begin() + static_cast<std::ptrdiff_t>(out));
      for (std::size_t a = from; a < to; ++a, ++out) {
        const std::int64_t slot = dst_slots_[a];
        g.dst_slots_[out] =
            slot < ghost_base ? slot
                              : ghost_base + moved_to[static_cast<std::size_t>(slot - ghost_base)];
      }
      if (stop == end) break;
      for (const HalfEdge& e : touched->second) {
        half[out] = e;
        g.dst_slots_[out] = owns(e.dst) ? static_cast<std::int64_t>(to_local(e.dst))
                                        : ghost_base + g.ghost_slot(e.dst);
        ++out;
      }
      lv = stop + 1;
      ++touched;
    }
  });
  g.local_ = Csr(local_n, std::move(offsets), std::move(half));

  // Degrees and boundary flags change only in touched rows; the totals keep
  // the full build's serial sum and allreduce, so their bits match it.
  g.degrees_ = degrees_;
  g.boundary_flags_ = boundary_flags_;
  g.boundary_count_ = boundary_count_;
  for (const auto& [lv, merged] : new_rows) {
    const VertexId gv = to_global(lv);
    Weight k = 0;
    bool boundary = false;
    for (const auto& e : merged) {
      k += e.dst == gv ? 2 * e.weight : e.weight;
      boundary = boundary || !owns(e.dst);
    }
    const auto row = static_cast<std::size_t>(lv);
    g.degrees_[row] = k;
    g.boundary_count_ += (boundary ? 1 : 0) - (boundary_flags_[row] != 0 ? 1 : 0);
    g.boundary_flags_[row] = boundary ? 1 : 0;
  }
  g.derive_totals(comm);

  // Algorithm 4's exchange, carrying the delta: tell each owner which of its
  // vertices we started and stopped ghosting -- [gained count, gained...,
  // lost...] -- and patch our mirror lists from what the peers tell us.
  const auto p = static_cast<std::size_t>(part_.num_ranks());
  g.ghosts_by_owner_.resize(p);
  std::vector<std::vector<VertexId>> delta(p);
  for (std::size_t r = 0; r < p; ++r) {
    const auto run = owned_run(part_, g.ghosts_, static_cast<Rank>(r));
    g.ghosts_by_owner_[r].assign(run.begin(), run.end());
    const auto gained_r = owned_run(part_, gained, static_cast<Rank>(r));
    const auto lost_r = owned_run(part_, lost, static_cast<Rank>(r));
    if (gained_r.empty() && lost_r.empty()) continue;
    delta[r].push_back(static_cast<VertexId>(gained_r.size()));
    delta[r].insert(delta[r].end(), gained_r.begin(), gained_r.end());
    delta[r].insert(delta[r].end(), lost_r.begin(), lost_r.end());
  }
  const auto inbox = comm.alltoallv<VertexId>(std::move(delta));
  g.mirrors_ = mirrors_;
  for (std::size_t r = 0; r < p; ++r) {
    const auto& from_r = inbox[r];
    if (from_r.empty()) continue;
    const auto gained_end = from_r.begin() + 1 + static_cast<std::ptrdiff_t>(from_r.front());
    auto& list = g.mirrors_[r];
    std::vector<VertexId> kept;
    kept.reserve(list.size());
    std::set_difference(list.begin(), list.end(), gained_end, from_r.end(),
                        std::back_inserter(kept));
    list.clear();
    std::merge(kept.begin(), kept.end(), from_r.begin() + 1, gained_end,
               std::back_inserter(list));
  }
  g.derive_neighbor_ranks();
  return g;
}

void DistGraph::validate(comm::Comm& comm) const {
  const int p = comm.size();
  std::string local_error;

  // 1. Ghost/mirror symmetry: what I ghost from rank r must equal what rank
  // r mirrors to me (and vice versa).
  const auto mirror_echo = comm.alltoallv<VertexId>(ghosts_by_owner_);
  for (int r = 0; r < p && local_error.empty(); ++r) {
    if (mirror_echo[static_cast<std::size_t>(r)] != mirrors_[static_cast<std::size_t>(r)])
      local_error = "ghost/mirror lists disagree with rank " + std::to_string(r);
  }

  // 2. Reverse-arc check: ship every cross-rank arc to its destination's
  // owner, which verifies a matching reverse arc exists locally.
  if (local_error.empty()) {
    std::vector<std::vector<Edge>> outbox(static_cast<std::size_t>(p));
    for (VertexId lv = 0; lv < local_count(); ++lv) {
      const VertexId gv = to_global(lv);
      for (const auto& e : local_.neighbors(lv)) {
        if (!owns(e.dst))
          outbox[static_cast<std::size_t>(owner(e.dst))].push_back(Edge{gv, e.dst, e.weight});
      }
    }
    const auto inbox = comm.alltoallv<Edge>(std::move(outbox));
    for (const auto& from_rank : inbox) {
      for (const Edge& arc : from_rank) {
        // arc.src -> arc.dst exists remotely; we own arc.dst and must hold
        // the reverse with equal weight.
        bool found = false;
        for (const auto& e : local_.neighbors(to_local(arc.dst))) {
          if (e.dst == arc.src && e.weight == arc.weight) {
            found = true;
            break;
          }
        }
        if (!found) {
          local_error = "missing reverse arc " + std::to_string(arc.dst) + "->" +
                        std::to_string(arc.src);
          break;
        }
      }
      if (!local_error.empty()) break;
    }
  }

  // 3. Degree sums reproduce the cached 2m.
  Weight local_weight = 0;
  for (const Weight k : degrees_) local_weight += k;
  const Weight recomputed = comm.allreduce_sum(local_weight);
  if (local_error.empty() && recomputed != total_weight_)
    local_error = "degree sum != cached total weight";

  // Agree on the outcome so every rank throws (or none does).
  const int worst = comm.allreduce_max<int>(local_error.empty() ? 0 : 1);
  if (worst != 0) {
    throw std::logic_error("DistGraph::validate: " +
                           (local_error.empty() ? std::string("peer rank failed")
                                                : local_error));
  }
}

void DistGraph::discover_ghosts(comm::Comm& comm) {
  const int p = comm.size();

  // Paper Algorithm 4 (ExchangeGhostVertices): scan local edge lists for
  // remote endpoints, bucket them by owner...
  ghosts_by_owner_.assign(static_cast<std::size_t>(p), {});
  for (const auto& e : local_.edges()) {
    if (!owns(e.dst)) ghosts_by_owner_[static_cast<std::size_t>(part_.owner(e.dst))].push_back(e.dst);
  }
  ghosts_.clear();
  for (auto& bucket : ghosts_by_owner_) {
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
    ghosts_.insert(ghosts_.end(), bucket.begin(), bucket.end());
  }
  // Buckets are owner-ordered and internally sorted, and owner intervals are
  // contiguous in id space, so the concatenation is globally sorted.

  // One-time arc -> slot translation: local row index for owned
  // destinations, local_count() + ghost slot for remote ones. Every
  // per-iteration O(arcs) loop indexes through this instead of searching.
  // The hash is measured 2.5-5x faster than binary-searching ghosts_ here.
  std::unordered_map<VertexId, std::size_t> ghost_index;
  ghost_index.reserve(ghosts_.size());
  for (std::size_t i = 0; i < ghosts_.size(); ++i) ghost_index[ghosts_[i]] = i;
  dst_slots_.resize(local_.edges().size());
  for (std::size_t a = 0; a < local_.edges().size(); ++a) {
    const VertexId dst = local_.edges()[a].dst;
    dst_slots_[a] = owns(dst)
                        ? static_cast<std::int64_t>(to_local(dst))
                        : static_cast<std::int64_t>(local_count()) +
                              static_cast<std::int64_t>(ghost_index.at(dst));
  }

  // Interior/boundary split (ISSUE 5): a vertex whose row references no
  // ghost slot can decide its move from purely rank-local state, so the
  // sweep may process it while a ghost exchange is still in flight. Derived
  // from dst_slots_, so it costs one extra O(arcs) pass at build time.
  boundary_flags_.assign(static_cast<std::size_t>(local_count()), 0);
  boundary_count_ = 0;
  const auto& offsets = local_.offsets();
  for (VertexId lv = 0; lv < local_count(); ++lv) {
    const auto lo = static_cast<std::size_t>(offsets[static_cast<std::size_t>(lv)]);
    const auto hi = static_cast<std::size_t>(offsets[static_cast<std::size_t>(lv) + 1]);
    for (std::size_t a = lo; a < hi; ++a) {
      if (dst_slots_[a] >= static_cast<std::int64_t>(local_count())) {
        boundary_flags_[static_cast<std::size_t>(lv)] = 1;
        ++boundary_count_;
        break;
      }
    }
  }

  // ...then tell each owner which of its vertices we ghost, so owners know
  // their send lists (mirrors) for the per-iteration community updates.
  mirrors_ = comm.alltoallv<VertexId>(ghosts_by_owner_);
  derive_neighbor_ranks();
}

void DistGraph::derive_neighbor_ranks() {
  // Static exchange topology: peers we either ghost from or mirror to. For
  // a symmetric graph the two imply each other, so the adjacency is
  // symmetric world-wide -- the prerequisite for neighbor_alltoallv.
  neighbor_ranks_.clear();
  for (int r = 0; r < num_ranks(); ++r) {
    if (r == rank_) continue;
    if (!ghosts_by_owner_[static_cast<std::size_t>(r)].empty() ||
        !mirrors_[static_cast<std::size_t>(r)].empty())
      neighbor_ranks_.push_back(static_cast<Rank>(r));
  }
}

}  // namespace dlouvain::graph
