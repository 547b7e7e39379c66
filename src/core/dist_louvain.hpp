// The distributed Louvain algorithm -- the paper's primary contribution
// (Algorithms 2 and 3 plus the Section IV-B heuristics).
//
// Collective: every rank of `comm` calls dist_louvain with its slice of the
// same DistGraph and an identical config; every rank returns an identical
// DistResult. The communication protocol per iteration is exactly the
// paper's: ghost community push, community-info request/reply, local move
// computation with immediate local updates, community-delta flush to owners,
// and a modularity all-reduce; phases end with the distributed rebuild.
#pragma once

#include <atomic>

#include "comm/comm.hpp"
#include "core/dist_config.hpp"
#include "core/telemetry.hpp"
#include "graph/dist_graph.hpp"

namespace dlouvain::core {

/// Warm-start seed for an incremental re-clustering run (the streaming
/// Session's batch updates; docs/STREAMING.md). Per OWNED vertex of the
/// rank's fine-graph slice, in local-index order:
///   * seed_community[lv]: the community (vertex-id space) the vertex starts
///     phase 0 in, instead of its own singleton -- typically the previous
///     converged assignment mapped through per-community representative
///     vertices;
///   * reactivated[lv]: nonzero iff the vertex is free to move during phase
///     0. Frozen vertices keep their seed community for the whole warm
///     phase; later phases (on the coarsened graph) run unrestricted.
/// Every rank must pass masks consistent with the same global seed
/// assignment; determinism is unchanged (the seed is data, not schedule).
struct WarmStart {
  std::vector<CommunityId> seed_community;
  std::vector<char> reactivated;
  /// Escalation threshold for the warm phase 0: when the re-convergence
  /// moves modularity (vs the seeded partition) by no more than
  /// max(exit_threshold, tau), the run exits at phase 0 via the
  /// renumber-only rebuild instead of coarsening -- the coarse chain's
  /// merges are already encoded in the seed communities, so re-running it
  /// buys ~nothing for small batches. 0 keeps the configured tau only.
  double exit_threshold{0};
};

/// Run distributed Louvain over `graph`, which is read, not consumed: the run
/// owns only the coarse graphs it builds (or the graph a checkpoint resume
/// loads), so the caller's slice is never copied. With DistConfig::checkpoint
/// configured, phase-boundary checkpoints are written (and resumed from) per
/// core/checkpoint.hpp.
/// `phase_progress`, when non-null, is updated by rank 0 with the index of
/// each phase as it starts -- the recovery driver's window into how far an
/// attempt got before it failed. `warm`, when non-null, seeds phase 0 from
/// a previous assignment and restricts its sweeps to the reactivated set
/// (ignored when a checkpoint resume supplies the state instead).
DistResult dist_louvain(comm::Comm& comm, const graph::DistGraph& graph,
                        const DistConfig& config = {},
                        std::atomic<int>* phase_progress = nullptr,
                        const WarmStart* warm = nullptr);

/// Convenience wrapper for tests/examples: distribute a replicated CSR over
/// `nranks` in-process ranks and run. Returns the (rank-identical) result.
/// `options` configures the comm runtime (receive deadline, fault plan).
DistResult dist_louvain_inprocess(int nranks, const graph::Csr& global,
                                  const DistConfig& config = {},
                                  graph::PartitionKind kind = graph::PartitionKind::kEvenEdges,
                                  const comm::RunOptions& options = {},
                                  std::atomic<int>* phase_progress = nullptr);

}  // namespace dlouvain::core
