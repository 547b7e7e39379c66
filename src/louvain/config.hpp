// Shared configuration and result types for all Louvain implementations
// (serial, shared-memory comparator, distributed).
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace dlouvain::louvain {

/// Options common to every Louvain flavour.
struct LouvainConfig {
  /// Modularity-gain threshold tau: a phase ends when the per-iteration gain
  /// drops to tau or below, and the algorithm ends when the per-phase gain
  /// does (paper default 1e-6).
  double threshold{1e-6};

  /// Safety bounds; generous enough to never bind in practice.
  int max_phases{64};
  int max_iterations_per_phase{512};

  /// Resolution parameter gamma (Reichardt-Bornholdt): optimizes
  /// Q_gamma = sum_c [ E_c/2m - gamma (a_c/2m)^2 ]. gamma = 1 is classical
  /// modularity; larger gamma favours more, smaller communities -- the
  /// standard mitigation for the resolution limit the paper discusses in its
  /// introduction (Fortunato & Barthelemy [12], Traag et al. [30]).
  double resolution{1.0};

  /// Early-termination heuristic (paper Section IV-B-b). When enabled, each
  /// vertex carries an activity probability that decays by (1 - et_alpha)
  /// every iteration it stays put and resets to 1 when it moves; the vertex
  /// participates in an iteration with that probability. A vertex whose
  /// probability falls below the paper's 2% (kEtInactiveCutoff,
  /// louvain/early_term.hpp) is labelled inactive outright.
  bool early_termination{false};
  double et_alpha{0.25};

  /// Vertex-following preprocessing (Grappolo heuristic): merge degree-1
  /// vertices into their sole neighbour before the first phase.
  bool vertex_following{false};

  /// Seed for the ET coin flips (keyed per (seed, vertex, phase, iteration),
  /// so results are independent of thread/rank counts).
  std::uint64_t seed{7777};
};

/// Per-phase telemetry, the raw material for the paper's convergence charts
/// (Figs. 5-6).
struct PhaseStats {
  int iterations{0};
  VertexId graph_vertices{0};   ///< vertices of the phase's (coarsened) graph
  EdgeId graph_arcs{0};
  Weight modularity_after{0};
  double seconds{0};
  double threshold_used{0};     ///< tau in effect (varies under cycling)
  std::int64_t inactive_vertices{0};  ///< ET bookkeeping at phase end
};

/// Result of a full Louvain run.
struct LouvainResult {
  /// Final community id per ORIGINAL vertex, compacted to [0, num_communities).
  std::vector<CommunityId> community;
  Weight modularity{0};
  CommunityId num_communities{0};
  int phases{0};
  long total_iterations{0};
  double seconds{0};
  std::vector<PhaseStats> phase_stats;
};

}  // namespace dlouvain::louvain
