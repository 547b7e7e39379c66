// Distributed graph: the per-rank slice of a 1D-partitioned global graph.
//
// Matches the paper's input distribution (Section IV): each rank owns a
// contiguous interval of global vertex ids and the full edge lists of those
// vertices (CSR, destinations kept as GLOBAL ids), plus "ghost" bookkeeping
// for every remote vertex referenced by a local edge list. Construction ends
// with the one-time-per-phase ghost/mirror exchange of paper Algorithm 4, so
// each rank also knows which of its own vertices are ghosted where.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "util/parallel.hpp"

namespace dlouvain::graph {

enum class PartitionKind {
  kEvenVertices,  ///< equal vertex counts per rank
  kEvenEdges,     ///< equal edge counts per rank (the paper's choice)
};

/// One undirected edge mutation of a streaming batch (see
/// DistGraph::with_edge_changes and dlouvain::EdgeBatch). `remove` drops
/// the whole edge {u, v} regardless of weight; otherwise weight (finite,
/// > 0) is ADDED to the edge, creating it if absent.
struct EdgeChange {
  VertexId u{kInvalidVertex};
  VertexId v{kInvalidVertex};
  Weight weight{1.0};
  bool remove{false};

  friend bool operator==(const EdgeChange&, const EdgeChange&) = default;
};

class DistGraph {
 public:
  DistGraph() = default;

  /// Local slice accessors. Local row index = global id - v_begin().
  [[nodiscard]] VertexId v_begin() const { return part_.begin(rank_); }
  [[nodiscard]] VertexId v_end() const { return part_.end(rank_); }
  [[nodiscard]] VertexId local_count() const { return part_.count(rank_); }
  [[nodiscard]] VertexId global_n() const { return part_.num_vertices(); }
  [[nodiscard]] bool owns(VertexId gv) const { return gv >= v_begin() && gv < v_end(); }
  [[nodiscard]] VertexId to_local(VertexId gv) const { return gv - v_begin(); }
  [[nodiscard]] VertexId to_global(VertexId lv) const { return lv + v_begin(); }
  [[nodiscard]] Rank owner(VertexId gv) const { return part_.owner(gv); }
  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] int num_ranks() const { return part_.num_ranks(); }

  /// The local CSR: rows are owned vertices (local index), destinations are
  /// global ids.
  [[nodiscard]] const Csr& local() const noexcept { return local_; }

  /// Global 2m (sum of all weighted degrees, all ranks).
  [[nodiscard]] Weight total_weight() const noexcept { return total_weight_; }

  /// Weighted degree of an owned vertex (precomputed).
  [[nodiscard]] Weight weighted_degree(VertexId gv) const {
    return degrees_[static_cast<std::size_t>(to_local(gv))];
  }

  /// Sorted unique global ids of remote vertices referenced by local edges.
  [[nodiscard]] const std::vector<VertexId>& ghosts() const noexcept { return ghosts_; }

  /// Index of a ghost in ghosts(), or -1 if gv is not a ghost here. A binary
  /// search of ghosts(); per-arc loops read dst_slots() instead.
  [[nodiscard]] std::int64_t ghost_slot(VertexId gv) const {
    const auto it = std::lower_bound(ghosts_.begin(), ghosts_.end(), gv);
    return it != ghosts_.end() && *it == gv ? it - ghosts_.begin() : -1;
  }

  /// Per-arc destination slots, aligned with local().edges(): arc a's
  /// destination resolves to dst_slots()[a], which is its local row index
  /// when owned here and local_count() + ghost slot otherwise. Derived with
  /// the ghost list (a full build hashes every remote arc once;
  /// with_edge_changes remaps the old slots), so the per-iteration hot loops
  /// (move scan, modularity, rebuild) never look a destination up per edge
  /// -- the index-translation trick of the Vite/Grappolo lineage.
  [[nodiscard]] const std::vector<std::int64_t>& dst_slots() const noexcept {
    return dst_slots_;
  }

  /// ghosts_by_owner()[r]: the subset of ghosts() owned by rank r (sorted).
  [[nodiscard]] const std::vector<std::vector<VertexId>>& ghosts_by_owner() const noexcept {
    return ghosts_by_owner_;
  }

  /// mirrors()[r]: my owned vertices that rank r keeps a ghost copy of
  /// (sorted). Produced by the Algorithm-4 exchange; this is the send list
  /// for per-iteration community updates.
  [[nodiscard]] const std::vector<std::vector<VertexId>>& mirrors() const noexcept {
    return mirrors_;
  }

  /// Interior/boundary classification (ISSUE 5): a vertex is BOUNDARY when
  /// at least one of its arcs resolves to a ghost slot, INTERIOR otherwise.
  /// Interior vertices' move decisions read no ghost vertex state, so the
  /// sweep can process them while a ghost exchange is still in flight.
  [[nodiscard]] bool is_boundary(VertexId lv) const {
    return boundary_flags_[static_cast<std::size_t>(lv)] != 0;
  }
  /// One flag per owned vertex (local index), nonzero = boundary.
  [[nodiscard]] const std::vector<char>& boundary_flags() const noexcept {
    return boundary_flags_;
  }
  [[nodiscard]] VertexId boundary_count() const noexcept { return boundary_count_; }
  [[nodiscard]] VertexId interior_count() const noexcept {
    return local_count() - boundary_count_;
  }

  /// Ranks this rank exchanges ghost traffic with (sorted, self excluded).
  /// Symmetric across the world for symmetric graphs: r lists s iff s lists
  /// r. This is the static topology the neighbourhood collectives use.
  [[nodiscard]] const std::vector<Rank>& neighbor_ranks() const noexcept {
    return neighbor_ranks_;
  }

  [[nodiscard]] const Partition1D& partition() const noexcept { return part_; }

  /// Global arc count (gathered at build).
  [[nodiscard]] EdgeId global_arcs() const noexcept { return global_arcs_; }

  /// Arc-count load imbalance: max/mean over ranks of local().num_arcs(),
  /// from the per-rank counts gathered at build. 1.0 when no rank owns an
  /// arc -- a graph with no arcs cannot be imbalanced.
  [[nodiscard]] double arc_imbalance() const noexcept { return arc_imbalance_; }

  /// Build a rank's slice from an arbitrary scatter of edges: every rank
  /// passes whatever (undirected, when symmetrize) edges it happens to hold
  /// -- e.g. straight out of a generator or a file slice -- and the
  /// constructor routes each arc to the owner of its source, which assembles
  /// its rows with graph::assemble_rows: duplicate arcs fold in arrival
  /// order, source rank then list order. Collective: all ranks of `comm`
  /// must call with the same global_n and partition. `pool` (optional)
  /// threads the row and degree passes; the resulting graph is identical at
  /// any thread count.
  static DistGraph build(comm::Comm& comm, const Partition1D& part,
                         std::vector<Edge> edges, bool symmetrize = true,
                         util::ThreadPool* pool = nullptr);

  /// Every rank holds the same global CSR, in the normal form build_csr
  /// produces (each row strictly ascending by destination); each copies its
  /// own row block with rebased offsets, no arc routing. The result equals
  /// build() of the same rows. Throws std::out_of_range on an endpoint
  /// outside the graph and std::invalid_argument on a row that is not
  /// strictly ascending. Collective.
  static DistGraph from_replicated(comm::Comm& comm, const Csr& global,
                                   PartitionKind kind = PartitionKind::kEvenEdges);

  /// This slice after a batch of undirected edge additions/removals, with
  /// everything derived from the arc set: CSR, degrees, total weight,
  /// ghosts, mirrors, dst slots, interior/boundary flags, neighbour
  /// topology. `*this` is left as it was. Collective: every rank passes the
  /// SAME global change list (the streaming-session contract); each applies
  /// the changes touching its owned rows, so both directions of every edge
  /// stay consistent.
  ///
  /// Semantics per change: removals resolve against the PRE-batch arc set
  /// (removing an edge the graph does not have throws std::invalid_argument
  /// on every rank, before anything is built); additions are applied
  /// afterwards and merge weights with surviving or duplicate arcs. Self
  /// loops, out-of-range endpoints and added weights that are not finite
  /// and positive are rejected. The partition is unchanged -- vertices never
  /// move ranks, so a fixed (graph, batch sequence) yields an identical
  /// DistGraph at any rank/thread count, and the result equals build() of
  /// the same rows.
  ///
  /// Cost: one copy of the slice plus work in the batch. Untouched rows are
  /// copied with their dst slots remapped; touched rows come from a sorted
  /// merge. The ghost bookkeeping follows from the ghost ids the batch
  /// gained and lost, and one alltoallv tells each owner those ids, which
  /// patches its mirror lists (Algorithm 4's exchange, carrying the delta).
  [[nodiscard]] DistGraph with_edge_changes(comm::Comm& comm,
                                            std::span<const EdgeChange> changes,
                                            util::ThreadPool* pool = nullptr) const;

  /// Collective consistency audit; throws std::logic_error (on every rank)
  /// describing the first violation found. Checks: every remote arc (u, v)
  /// has a reverse arc (v, u) of equal weight at v's owner; ghost and mirror
  /// lists agree pairwise; per-rank degree sums reproduce total_weight().
  /// Intended after custom construction paths and in long-running services'
  /// self-checks; O(arcs) compute + one alltoallv.
  void validate(comm::Comm& comm) const;

 private:
  /// The tail every full build shares: weighted degrees of all rows,
  /// derive_totals, then discover_ghosts.
  void derive_from_rows(comm::Comm& comm, util::ThreadPool* pool);
  /// Allreduced total weight (serial sum of the degrees first); gathered
  /// arc counts, their sum and arc_imbalance().
  void derive_totals(comm::Comm& comm);
  /// Paper Algorithm 4 over every local arc: ghosts, dst slots, boundary
  /// flags, ghosts_by_owner, mirrors, neighbour ranks.
  void discover_ghosts(comm::Comm& comm);
  /// neighbor_ranks_ from the ghosts_by_owner_ and mirrors_ lists, O(p).
  void derive_neighbor_ranks();

  Rank rank_{0};
  Partition1D part_;
  Csr local_;
  std::vector<Weight> degrees_;
  Weight total_weight_{0};
  EdgeId global_arcs_{0};
  double arc_imbalance_{1.0};
  std::vector<VertexId> ghosts_;
  std::vector<std::int64_t> dst_slots_;
  std::vector<char> boundary_flags_;
  VertexId boundary_count_{0};
  std::vector<std::vector<VertexId>> ghosts_by_owner_;
  std::vector<std::vector<VertexId>> mirrors_;
  std::vector<Rank> neighbor_ranks_;
};

}  // namespace dlouvain::graph
