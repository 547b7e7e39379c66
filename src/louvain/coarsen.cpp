#include "louvain/coarsen.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlouvain::louvain {

CommunityId compact_ids(std::vector<CommunityId>& community) {
  // Sorted-unique id list = the ordered renumbering (stable compact ids),
  // flat instead of a node-based map.
  std::vector<CommunityId> ids(community);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (auto& c : community) {
    c = static_cast<CommunityId>(
        std::lower_bound(ids.begin(), ids.end(), c) - ids.begin());
  }
  return static_cast<CommunityId>(ids.size());
}

std::vector<CommunityId> compose(std::span<const CommunityId> orig_to_curr,
                                 std::span<const CommunityId> curr_assignment) {
  std::vector<CommunityId> out(orig_to_curr.size());
  for (std::size_t i = 0; i < orig_to_curr.size(); ++i) {
    const auto cur = orig_to_curr[i];
    if (cur < 0 || static_cast<std::size_t>(cur) >= curr_assignment.size())
      throw std::out_of_range("compose: mapping out of range");
    out[i] = curr_assignment[static_cast<std::size_t>(cur)];
  }
  return out;
}

CoarsenResult coarsen(const graph::Csr& g, std::span<const CommunityId> community) {
  const VertexId n = g.num_vertices();
  if (community.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("coarsen: assignment size != num vertices");

  CoarsenResult result;
  result.old_to_new.assign(community.begin(), community.end());
  result.num_meta_vertices = compact_ids(result.old_to_new);

  // Emit meta arcs once, in edge-scan order. Distinct-member intra weight is
  // summed into `intra` (it double counts each undirected pair) and halved at
  // the end; stored member self loops land in `self` at face value.
  // Inter-community arcs are emitted flat and assembled once: the assembler
  // sums each (meta-src, meta-dst) pair left to right in scan order.
  std::vector<Edge> arcs;
  std::vector<Weight> intra(static_cast<std::size_t>(result.num_meta_vertices), 0.0);
  std::vector<Weight> self(static_cast<std::size_t>(result.num_meta_vertices), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const CommunityId cv = result.old_to_new[static_cast<std::size_t>(v)];
    for (const auto& e : g.neighbors(v)) {
      const CommunityId cu = result.old_to_new[static_cast<std::size_t>(e.dst)];
      if (e.dst == v) {
        self[static_cast<std::size_t>(cv)] += e.weight;
      } else if (cu == cv) {
        intra[static_cast<std::size_t>(cv)] += e.weight;
      } else {
        arcs.push_back({cv, cu, e.weight});
      }
    }
  }
  for (CommunityId c = 0; c < result.num_meta_vertices; ++c) {
    const Weight loop = intra[static_cast<std::size_t>(c)] / 2 + self[static_cast<std::size_t>(c)];
    if (loop > 0) arcs.push_back({c, c, loop});
  }

  result.graph = graph::assemble_rows(result.num_meta_vertices, 0, {&arcs, 1});
  return result;
}

}  // namespace dlouvain::louvain
