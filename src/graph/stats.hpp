// Structural summary statistics for graphs: degree statistics and connected
// components (dlouvain_cli --stats, the generator validation tests).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "util/types.hpp"

namespace dlouvain::graph {

struct DegreeStats {
  EdgeId min_degree{0};
  EdgeId max_degree{0};
  double mean_degree{0};
  double stddev_degree{0};
  VertexId isolated_vertices{0};
  EdgeId self_loops{0};
  Weight total_weight_2m{0};
  /// log2 histogram: bucket[i] counts vertices with degree in [2^i, 2^(i+1)).
  /// bucket[0] also holds degree-0 and degree-1 vertices.
  std::vector<VertexId> log2_histogram;
};

DegreeStats degree_stats(const Csr& g);

/// Connected components via union-find; returns component id per vertex
/// (smallest member id) and the component count.
struct ComponentsResult {
  std::vector<VertexId> component;
  VertexId count{0};
};
ComponentsResult connected_components(const Csr& g);

}  // namespace dlouvain::graph
