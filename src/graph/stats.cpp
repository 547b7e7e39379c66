#include "graph/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace dlouvain::graph {

DegreeStats degree_stats(const Csr& g) {
  DegreeStats stats;
  const VertexId n = g.num_vertices();
  if (n == 0) return stats;

  stats.min_degree = g.degree(0);
  double sum = 0;
  double sum_sq = 0;
  for (VertexId v = 0; v < n; ++v) {
    const EdgeId d = g.degree(v);
    stats.min_degree = std::min(stats.min_degree, d);
    stats.max_degree = std::max(stats.max_degree, d);
    sum += static_cast<double>(d);
    sum_sq += static_cast<double>(d) * static_cast<double>(d);
    if (d == 0) ++stats.isolated_vertices;

    const std::size_t bucket =
        d <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(static_cast<std::uint64_t>(d)) - 1);
    if (stats.log2_histogram.size() <= bucket) stats.log2_histogram.resize(bucket + 1, 0);
    ++stats.log2_histogram[bucket];

    for (const auto& e : g.neighbors(v))
      if (e.dst == v) ++stats.self_loops;
  }
  stats.mean_degree = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - stats.mean_degree * stats.mean_degree;
  stats.stddev_degree = var > 0 ? std::sqrt(var) : 0.0;
  stats.total_weight_2m = g.total_arc_weight();
  return stats;
}

namespace {

VertexId find_root(std::vector<VertexId>& parent, VertexId v) {
  while (parent[static_cast<std::size_t>(v)] != v) {
    parent[static_cast<std::size_t>(v)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
    v = parent[static_cast<std::size_t>(v)];
  }
  return v;
}

}  // namespace

ComponentsResult connected_components(const Csr& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), VertexId{0});

  for (VertexId v = 0; v < n; ++v) {
    for (const auto& e : g.neighbors(v)) {
      const VertexId a = find_root(parent, v);
      const VertexId b = find_root(parent, e.dst);
      if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    }
  }

  ComponentsResult result;
  result.component.resize(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    result.component[static_cast<std::size_t>(v)] = find_root(parent, v);
    if (result.component[static_cast<std::size_t>(v)] == v) ++result.count;
  }
  return result;
}

}  // namespace dlouvain::graph
