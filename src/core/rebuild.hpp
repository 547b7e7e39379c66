// Distributed graph reconstruction between Louvain phases (paper Fig. 1,
// steps 1-7): communities become meta-vertices, intra-community weight
// becomes a self loop, inter-community weight is aggregated, and the new
// graph is redistributed so every rank owns an (almost) equal number of the
// new vertices.
#pragma once

#include <span>

#include "comm/comm.hpp"
#include "core/community_state.hpp"
#include "core/ghost_exchange.hpp"
#include "graph/dist_graph.hpp"
#include "util/parallel.hpp"

namespace dlouvain::core {

struct RebuildOutput {
  /// The coarsened, redistributed graph for the next phase.
  graph::DistGraph graph;
  /// For each CURRENT owned vertex (local index): the id of the meta-vertex
  /// it collapsed into. This is what lets the driver maintain the
  /// original-vertex -> current-vertex chain across phases.
  std::vector<VertexId> new_vertex_of_current;
  VertexId new_global_n{0};
};

/// Collective. `owned_community[lv]` is the final community of each owned
/// vertex; `ghosts` must reflect a completed exchange of those finals (the
/// driver re-pushes after the last iteration); `ledger` carries the
/// authoritative sizes used to detect surviving communities.
///
/// Old->meta ids are resolved once per slot of the g.dst_slots() space
/// (owned vertices, then ghosts). Step 5 emits each rank's partial edge list
/// already coalesced: owned vertices are grouped by meta-source, and each
/// group's arcs are summed per meta-destination with a
/// util::SegmentedAccumulator, so a rank ships one arc per (meta-source,
/// meta-destination) pair whose weight folds in CSR order (ascending local
/// vertex, then arc order). DistGraph::build's graph::assemble_rows then
/// folds the at most p partial sums of a pair in rank order. That equals one
/// left-to-right fold over all ranks' fine arcs whenever the weights add
/// exactly (e.g. unit weights); for any weights it is deterministic.
///
/// `pool` (optional) threads the grouping pass and the CSR row pass inside
/// DistGraph::build without changing the output: groups run in static chunks
/// whose outputs are concatenated in chunk order, and the row pass folds each
/// row on its own (see graph::assemble_rows), so the rebuilt graph is
/// identical at any thread count.
///
/// Trace spans (comm.trace()): rebuild_renumber (steps 1-3), rebuild_resolve
/// (step 4), rebuild_coalesce (step 5) and rebuild_ship (steps 6-7).
///
/// `build_graph = false` runs only the renumbering (steps 1-4 + the
/// current->meta mapping), leaving `graph` default-constructed -- the
/// coalescing pass and the coarse DistGraph::build collective are skipped.
/// Used on a run's last phase, where the coarse graph would be built only
/// to be thrown away (docs/STREAMING.md); the flag must be collectively
/// identical, since it changes which collectives run.
///
/// `phase` labels the trace spans.
RebuildOutput rebuild(comm::Comm& comm, const graph::DistGraph& g,
                      std::span<const CommunityId> owned_community,
                      const GhostCommunities& ghosts, const CommunityLedger& ledger,
                      util::ThreadPool* pool = nullptr, bool build_graph = true,
                      int phase = 0);

}  // namespace dlouvain::core
