#include "graph/csr.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace dlouvain::graph {

Csr::Csr(VertexId num_vertices, std::vector<EdgeId> offsets, std::vector<HalfEdge> edges)
    : num_vertices_(num_vertices), offsets_(std::move(offsets)), edges_(std::move(edges)) {
  if (offsets_.size() != static_cast<std::size_t>(num_vertices_) + 1)
    throw std::invalid_argument("Csr: offsets must have num_vertices+1 entries");
  if (offsets_.back() != static_cast<EdgeId>(edges_.size()))
    throw std::invalid_argument("Csr: offsets.back() must equal edges.size()");
}

Weight Csr::weighted_degree(VertexId v) const {
  Weight k = 0;
  for (const auto& e : neighbors(v)) k += e.dst == v ? 2 * e.weight : e.weight;
  return k;
}

Weight Csr::total_arc_weight() const {
  Weight total = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) total += weighted_degree(v);
  return total;
}

Csr assemble_rows(VertexId num_rows, VertexId first_row,
                  std::span<const std::vector<Edge>> batches, util::ThreadPool* pool) {
  if (num_rows < 0) throw std::invalid_argument("assemble_rows: negative row count");
  const auto rows = static_cast<std::size_t>(num_rows);

  // Counting sort by row: count (checking each source before it indexes),
  // prefix, then scatter in arrival order.
  std::vector<EdgeId> offsets(rows + 1, 0);
  for (const auto& batch : batches) {
    for (const Edge& e : batch) {
      const VertexId row = e.src - first_row;
      if (row < 0 || row >= num_rows)
        throw std::out_of_range("assemble_rows: arc source outside the row range");
      ++offsets[static_cast<std::size_t>(row) + 1];
    }
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<HalfEdge> edges(static_cast<std::size_t>(offsets.back()));
  {
    std::vector<EdgeId> fill(offsets.begin(), offsets.end() - 1);
    for (const auto& batch : batches) {
      for (const Edge& e : batch) {
        auto& next = fill[static_cast<std::size_t>(e.src - first_row)];
        edges[static_cast<std::size_t>(next++)] = HalfEdge{e.dst, e.weight};
      }
    }
  }

  // Row pass: order each row stably by destination and fold runs of equal
  // destinations left to right in place, recording the folded length.
  std::vector<EdgeId> folded(rows + 1, 0);
  util::parallel_for(pool, num_rows, [&](int, std::int64_t begin, std::int64_t end) {
    for (auto v = static_cast<std::size_t>(begin); v < static_cast<std::size_t>(end); ++v) {
      HalfEdge* first = edges.data() + offsets[v];
      HalfEdge* last = edges.data() + offsets[v + 1];
      std::stable_sort(first, last,
                       [](const HalfEdge& a, const HalfEdge& b) { return a.dst < b.dst; });
      HalfEdge* out = first;
      for (HalfEdge* a = first; a != last; ++a) {
        if (out != first && (out - 1)->dst == a->dst) {
          (out - 1)->weight += a->weight;
        } else {
          *out++ = *a;
        }
      }
      folded[v + 1] = out - first;
    }
  });
  std::partial_sum(folded.begin(), folded.end(), folded.begin());
  if (folded.back() == offsets.back())
    return Csr(num_rows, std::move(offsets), std::move(edges));

  // Some arcs folded: pack the shortened rows.
  std::vector<HalfEdge> packed(static_cast<std::size_t>(folded.back()));
  util::parallel_for(pool, num_rows, [&](int, std::int64_t begin, std::int64_t end) {
    for (auto v = static_cast<std::size_t>(begin); v < static_cast<std::size_t>(end); ++v) {
      std::copy_n(edges.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                  folded[v + 1] - folded[v],
                  packed.begin() + static_cast<std::ptrdiff_t>(folded[v]));
    }
  });
  return Csr(num_rows, std::move(folded), std::move(packed));
}

Csr build_csr(VertexId num_vertices, const std::vector<Edge>& arcs) {
  if (num_vertices < 0) throw std::invalid_argument("build_csr: negative vertex count");
  for (const Edge& e : arcs) {
    if (e.src < 0 || e.src >= num_vertices || e.dst < 0 || e.dst >= num_vertices)
      throw std::out_of_range("build_csr: arc endpoint outside [0, num_vertices)");
  }
  return assemble_rows(num_vertices, 0, {&arcs, 1});
}

Csr from_edges(VertexId num_vertices, const std::vector<Edge>& undirected_edges) {
  std::vector<Edge> arcs;
  arcs.reserve(undirected_edges.size() * 2);
  arcs.assign(undirected_edges.begin(), undirected_edges.end());
  for (const Edge& e : undirected_edges) {
    if (e.src != e.dst) arcs.push_back(Edge{e.dst, e.src, e.weight});
  }
  return build_csr(num_vertices, arcs);
}

}  // namespace dlouvain::graph
