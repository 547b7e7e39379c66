// Telemetry for the distributed Louvain run: per-iteration modularity
// evolution (the raw series behind paper Figs. 5-6), per-phase timings split
// into the compute / communication buckets of the paper's Section V-A
// HPCToolkit analysis, and global traffic counters.
#pragma once

#include <cstdint>
#include <vector>

#include "util/metrics.hpp"
#include "util/types.hpp"

namespace dlouvain::core {

struct IterationTelemetry {
  int iteration{0};
  Weight modularity{0};
  std::int64_t active_vertices{0};   ///< vertices that participated
  std::int64_t moved_vertices{0};    ///< vertices that changed community
  std::int64_t inactive_vertices{0}; ///< ET-labelled inactive (global)
};

/// Wall-time split for one phase, mirroring the paper's breakdown: ghost
/// community exchange + community-info refresh + delta shipping are the
/// "communicating community related information" share, the all-reduce is
/// reported separately, and the per-vertex scan is "computation".
struct TimeBreakdown {
  double ghost_exchange{0};
  double community_info{0};
  double compute{0};
  double delta_exchange{0};
  double allreduce{0};
  double rebuild{0};

  /// Summed per-thread seconds the rank's compute pool spent inside the
  /// local-move scan. Equals `compute` on one thread; `compute_busy /
  /// compute` is the scan's effective parallelism. NOT part of total():
  /// these seconds overlap the `compute` wall time.
  double compute_busy{0};

  /// Exchange latency (ghost + delta collectives) that elapsed while this
  /// rank was computing instead of blocked waiting -- what the overlap
  /// schedule actually hid (ISSUE 5). Summed PER PEER BUFFER: each incoming
  /// buffer contributes its in-flight span from the collective's launch to
  /// the earlier of its delivery and the blocking wait (so it can exceed the
  /// compute wall when many peers' latency is hidden at once). NOT part of
  /// total(): these seconds overlap the compute wall time by definition.
  double comm_hidden{0};

  [[nodiscard]] double total() const {
    return ghost_exchange + community_info + compute + delta_exchange + allreduce +
           rebuild;
  }

  TimeBreakdown& operator+=(const TimeBreakdown& other) {
    ghost_exchange += other.ghost_exchange;
    community_info += other.community_info;
    compute += other.compute;
    delta_exchange += other.delta_exchange;
    allreduce += other.allreduce;
    rebuild += other.rebuild;
    compute_busy += other.compute_busy;
    comm_hidden += other.comm_hidden;
    return *this;
  }
};

struct PhaseTelemetry {
  int phase{0};
  int iterations{0};
  int threads{1};  ///< compute threads per rank during this phase
  VertexId graph_vertices{0};  ///< size of this phase's (coarsened) graph
  EdgeId graph_arcs{0};
  Weight modularity_after{0};
  double threshold_used{0};
  double seconds{0};
  TimeBreakdown breakdown;
  /// Arc-count load imbalance (max/mean over ranks of owned arcs) of the
  /// partition this phase ran on: how unevenly coarsening left the work.
  /// DistGraph::arc_imbalance() of the phase's graph.
  double load_lambda{1.0};
  /// The phase ended below the modularity it started from, so its moves
  /// were dropped: no rebuild, no chain update, and the run ended on the
  /// previous phase's partition. It still counts in phases and
  /// total_iterations. Never set on a warm-started phase.
  bool discarded{false};
  std::vector<IterationTelemetry> iteration_detail;
};

/// Cumulative streaming-update telemetry of one Session (the manifest v2
/// "updates" section; docs/STREAMING.md). All zero for a one-shot run --
/// the section is always emitted so v2 consumers never branch on presence.
struct UpdateTelemetry {
  std::int64_t batches_applied{0};
  std::int64_t edges_added{0};
  std::int64_t edges_removed{0};
  /// Vertices the warm starts reactivated, summed over batches (global).
  std::int64_t vertices_reactivated{0};
  /// Iterations the warm phase-0 re-convergences ran, summed over batches.
  std::int64_t reconverge_iterations{0};
  /// Batches whose warm result drifted past the fallback threshold and were
  /// recomputed from scratch.
  std::int64_t fallback_to_full{0};
};

/// Result of a distributed Louvain run. Collective-produced: identical on
/// every rank.
struct DistResult {
  /// Final community per ORIGINAL vertex, compact ids [0, num_communities).
  std::vector<CommunityId> community;
  Weight modularity{0};  ///< exact: the last kept phase's final modularity
  CommunityId num_communities{0};
  int phases{0};
  long total_iterations{0};
  double seconds{0};
  std::vector<PhaseTelemetry> phase_telemetry;
  TimeBreakdown breakdown;      ///< summed over phases

  // -- counter semantics (the satellite-3 rule) ---------------------------
  // seconds/messages/bytes are WHOLE-JOB totals: on a resumed run they equal
  // restored pre-checkpoint counters (persisted in the checkpoint's
  // state.bin) PLUS what this process measured -- the same rule
  // phases/total_iterations always followed. `restored` holds the restored
  // addend so callers can recover the this-process-only portion by
  // subtraction. messages/bytes count ALGORITHM traffic only; checkpoint
  // save/load I/O is reclassified into the checkpoint.* counters (see
  // `counters` and util/metrics.hpp), so totals are comparable across runs
  // with and without checkpointing.
  std::int64_t messages{0};     ///< global algorithm message count (all ranks)
  std::int64_t bytes{0};        ///< global algorithm payload bytes (all ranks)

  /// Pre-checkpoint totals restored on resume (all zero for a fresh run).
  /// Already INCLUDED in seconds/messages/bytes above.
  struct RestoredCounters {
    double seconds{0};
    std::int64_t messages{0};
    std::int64_t bytes{0};
  };
  RestoredCounters restored;

  /// Global (allreduced, identical on every rank) named-counter totals for
  /// the EXECUTED portion of this run -- the full catalog from
  /// util/metrics.hpp plus pool busy-seconds. Restored pre-checkpoint
  /// history is NOT folded in here; only messages/bytes/seconds above carry
  /// restored history, because only they are persisted.
  util::MetricsSnapshot counters;

  /// Phase the run was resumed from (DistConfig::checkpoint.resume with a
  /// valid checkpoint on disk); -1 when the run started fresh. When >= 0,
  /// phases/total_iterations/seconds/messages/bytes cover the whole job
  /// (restored + replayed) while phase_telemetry covers only replayed phases
  /// (per-phase detail of checkpointed phases is not persisted).
  int resumed_from_phase{-1};

  /// Populated only when DistConfig::gather_quality is set, and only on rank
  /// 0 (the paper's Section V-D mode): element [ph] is the full
  /// original-vertex community assignment after phase ph, enabling per-phase
  /// precision/recall/F-score tracking against ground truth.
  std::vector<std::vector<CommunityId>> phase_assignments;
};

}  // namespace dlouvain::core
