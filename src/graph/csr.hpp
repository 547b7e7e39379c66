// Compressed-sparse-row graph storage (paper Section IV: "We use the
// compressed sparse row (CSR) format to store the vertex and edge lists").
//
// A Csr holds `num_vertices` rows; row v lists the arcs leaving v. Undirected
// graphs are stored symmetrically (both arc directions present), so the total
// arc weight equals 2m in the modularity formulas. A Csr assembled from arcs
// is in normal form: each row strictly ascending by destination, parallel
// arcs folded into one (see assemble_rows).
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace dlouvain::util {
class ThreadPool;
}  // namespace dlouvain::util

namespace dlouvain::graph {

class Csr {
 public:
  Csr() = default;

  /// Construct from prebuilt arrays. offsets.size() must be n+1 and
  /// offsets.back() must equal edges.size().
  Csr(VertexId num_vertices, std::vector<EdgeId> offsets, std::vector<HalfEdge> edges);

  [[nodiscard]] VertexId num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] EdgeId num_arcs() const noexcept {
    return static_cast<EdgeId>(edges_.size());
  }

  /// Arcs leaving v (v is a row index in [0, num_vertices)).
  [[nodiscard]] std::span<const HalfEdge> neighbors(VertexId v) const {
    const auto lo = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    const auto hi = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {edges_.data() + lo, hi - lo};
  }

  /// Unweighted out-degree of row v.
  [[nodiscard]] EdgeId degree(VertexId v) const {
    return offsets_[static_cast<std::size_t>(v) + 1] - offsets_[static_cast<std::size_t>(v)];
  }

  /// Weighted out-degree of row v (k_v in the modularity formulas; self-loop
  /// weight counts twice, matching the adjacency-matrix convention where a
  /// self loop contributes A_vv = 2w).
  [[nodiscard]] Weight weighted_degree(VertexId v) const;

  /// Sum of all arc weights; equals 2m for a symmetric graph with self loops
  /// pre-doubled at build time.
  [[nodiscard]] Weight total_arc_weight() const;

  [[nodiscard]] const std::vector<EdgeId>& offsets() const noexcept { return offsets_; }
  [[nodiscard]] const std::vector<HalfEdge>& edges() const noexcept { return edges_; }

 private:
  VertexId num_vertices_{0};
  std::vector<EdgeId> offsets_{0};
  std::vector<HalfEdge> edges_;
};

/// The one CSR row assembler: every Csr built from arcs (build_csr,
/// DistGraph::build, louvain::coarsen) comes out of here, so DESIGN §6's
/// fold-order rule lives in one place. `batches` hold directed arcs in
/// arrival order; an arc's row is src - first_row, which must lie in
/// [0, num_rows) (else std::out_of_range); destinations are stored as given.
/// Arcs are counting-sorted by row, which keeps each row in arrival order;
/// each row is then stably ordered by destination, and equal (src, dst) arcs
/// fold left to right into one arc carrying their summed weight. Every row
/// of the result is strictly ascending by destination -- the normal form.
/// `pool` (optional) threads the row pass in static chunks of rows; the
/// result is identical at any thread count.
Csr assemble_rows(VertexId num_rows, VertexId first_row,
                  std::span<const std::vector<Edge>> batches,
                  util::ThreadPool* pool = nullptr);

/// Build a CSR over vertex ids [0, num_vertices) from directed arcs, taken
/// as given: no reverse arcs are added. Arcs with endpoints outside the range
/// throw std::out_of_range.
///
/// Self loops: a self loop (u,u,w) is stored as ONE arc whose weight is
/// counted twice by weighted_degree(), so modularity arithmetic sees the
/// conventional A_uu = 2w. (The rebuild step creates these.)
Csr build_csr(VertexId num_vertices, const std::vector<Edge>& arcs);

/// Undirected edge list -> symmetric CSR: adds the reverse of every edge
/// that is not a self loop, then build_csr.
Csr from_edges(VertexId num_vertices, const std::vector<Edge>& undirected_edges);

}  // namespace dlouvain::graph
