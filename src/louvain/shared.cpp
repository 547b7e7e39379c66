#include "louvain/shared.hpp"

#include <numeric>

#include "louvain/coarsen.hpp"
#include "louvain/early_term.hpp"
#include "louvain/modularity.hpp"
#include "louvain/vertex_follow.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/segmented.hpp"
#include "util/timer.hpp"

namespace dlouvain::louvain {

namespace {

/// Fixed number of bulk-synchronous micro-batches each sweep is cut into.
/// Independent of the thread count -- batch boundaries depend only on n --
/// which is what makes the threaded sweep bitwise identical to the
/// single-threaded one. Large enough that within-sweep propagation
/// approaches the asynchronous serial sweep; on graphs smaller than this,
/// batches degrade to single vertices and the sweep IS the serial sweep.
constexpr std::int64_t kSweepBatches = 64;

struct PhaseOutput {
  std::vector<CommunityId> community;
  std::int64_t inactive{0};
};

// One phase of pool-threaded Louvain, structured as a sequence of
// bulk-synchronous micro-batches (the same scheme as core/dist_louvain's
// within-rank sweep). The shuffled sweep order is cut into kSweepBatches
// fixed slices; within a batch every vertex's move DECISION is computed in
// parallel against the batch-start community state, then the batch is
// APPLIED serially in sweep order -- community aggregates (a_c, |c|), the
// incremental modularity trackers and the ET probabilities all update in a
// fixed sequence. Decisions read only snapshot state and apply order is
// pinned, so the phase's outcome (assignments AND every floating-point bit)
// is identical at any thread count -- unlike classic Grappolo's benignly
// racy asynchronous sweep, which this comparator previously imitated.
// Moves still propagate within a sweep at 1/kSweepBatches granularity, so
// convergence behaviour stays close to the asynchronous original. The
// per-iteration cost remains proportional to the ACTIVE vertex set -- the
// property the early-termination heuristic's Table I economics rely on.
PhaseOutput run_phase(const graph::Csr& g, const LouvainConfig& cfg, int phase,
                      util::ThreadPool& pool, PhaseStats& stats) {
  const VertexId n = g.num_vertices();
  const Weight two_m = g.total_arc_weight();
  const Weight m = two_m / 2;

  std::vector<CommunityId> curr(static_cast<std::size_t>(n));
  std::iota(curr.begin(), curr.end(), CommunityId{0});

  std::vector<Weight> k(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) k[static_cast<std::size_t>(v)] = g.weighted_degree(v);
  std::vector<Weight> a = k;                                   // community degree
  std::vector<VertexId> size(static_cast<std::size_t>(n), 1);  // community sizes

  EtState et(cfg.early_termination ? static_cast<std::size_t>(n) : 0, cfg.et_alpha,
             kEtInactiveCutoff, cfg.seed);

  // Incrementally maintained modularity state. Initially every vertex is a
  // singleton: intra weight is just the self loops (A_vv = 2w), degree term
  // is sum k^2.
  Weight intra = 0;
  Weight degree_term = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree_term += k[static_cast<std::size_t>(v)] * k[static_cast<std::size_t>(v)];
    for (const auto& e : g.neighbors(v))
      if (e.dst == v) intra += 2 * e.weight;
  }
  const double gamma = cfg.resolution;
  const auto q_of = [&] {
    return two_m > 0 ? intra / two_m - gamma * degree_term / (two_m * two_m) : 0.0;
  };
  Weight prev_mod = q_of();

  // Seeded-random sweep order, reshuffled per iteration: index-order sweeps
  // let the first-formed community drain every later vertex on graphs with
  // id-correlated locality (see louvain/serial.cpp for the full rationale).
  // The shuffle also fixes which vertex lands in which micro-batch, and its
  // seed never involves the thread count.
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), VertexId{0});
  util::Xoshiro256StarStar order_rng(cfg.seed ^ 0x9d2c5680aa3b1e4fULL);

  // Per-vertex move proposals for the current sweep: kInvalidCommunity =
  // did not participate (ET-inactive), own id = participated but stays.
  // delta_e[v] carries (best_e - e_own) from the decision scan to the
  // serial apply, for the incremental intra tracker.
  std::vector<CommunityId> proposed(static_cast<std::size_t>(n), kInvalidCommunity);
  std::vector<Weight> delta_e(static_cast<std::size_t>(n), 0);

  // One segmented e_{v -> c} reduction per pool thread (community ids live
  // in [0, n) on this engine), reused across vertices and batches. Each
  // thread only ever touches its own accumulator, so the decision scan
  // stays race-free (util/segmented.hpp).
  std::vector<util::SegmentedAccumulator<Weight>> scatter(
      static_cast<std::size_t>(pool.num_threads()));

  for (int iter = 0; iter < cfg.max_iterations_per_phase; ++iter) {
    std::int64_t moved_count = 0;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[order_rng.next_below(i)]);

    for (std::int64_t batch = 0; batch < kSweepBatches; ++batch) {
      const auto [batch_begin, batch_end] =
          util::fixed_chunk(static_cast<std::int64_t>(n), batch, kSweepBatches);
      if (batch_begin >= batch_end) continue;

      // Parallel decision scan against the batch-start state. curr / a /
      // size / et probabilities are read-only until every thread is done, so
      // the scan's partitioning across threads cannot change any proposal.
      util::parallel_for(&pool, batch_end - batch_begin,
                         [&, batch_begin](int tid, std::int64_t begin,
                                          std::int64_t end) {
        auto& nbr_weight = scatter[static_cast<std::size_t>(tid)];
        for (std::int64_t i = begin; i < end; ++i) {
          const VertexId v = order[static_cast<std::size_t>(batch_begin + i)];
          const auto vi = static_cast<std::size_t>(v);
          if (cfg.early_termination && !et.is_active(vi, v, phase, iter)) {
            proposed[vi] = kInvalidCommunity;
            continue;
          }

          const CommunityId own = curr[vi];
          const Weight kv = k[vi];

          nbr_weight.reset(static_cast<std::size_t>(n));
          for (const auto& e : g.neighbors(v)) {
            if (e.dst == v) continue;
            nbr_weight.add(curr[static_cast<std::size_t>(e.dst)], e.weight);
          }
          const Weight e_own = nbr_weight.sum_of(own);
          const Weight a_own_less_v = a[static_cast<std::size_t>(own)] - kv;

          const auto pick = util::best_segment(
              nbr_weight, nbr_weight.segment_of(own), e_own, a_own_less_v, kv,
              m, gamma,
              [&](std::int64_t slot) { return a[static_cast<std::size_t>(slot)]; },
              [](std::int64_t slot) { return static_cast<CommunityId>(slot); });
          CommunityId best = own;
          Weight best_e = e_own;
          if (pick.segment >= 0) {
            best = nbr_weight.slots()[static_cast<std::size_t>(pick.segment)];
            best_e = nbr_weight.sums()[static_cast<std::size_t>(pick.segment)];
          }

          // Singleton-swap guard: prevents two same-batch singleton vertices
          // (which decide from the same snapshot) from endlessly exchanging
          // communities; only the id-decreasing direction is allowed.
          if (best != own && size[static_cast<std::size_t>(own)] == 1 &&
              size[static_cast<std::size_t>(best)] == 1 && best > own) {
            best = own;
          }

          proposed[vi] = best;
          delta_e[vi] = best_e - e_own;
        }
      });

      // Serial apply in sweep (slot) order: the fixed sequence pins every
      // floating-point accumulation in the trackers, so modularity is
      // bitwise identical at any thread count. Same-batch neighbour moves
      // can make a delta_e increment stale -- deterministic, bounded drift;
      // the exact modularity is recomputed at phase end.
      for (std::int64_t i = batch_begin; i < batch_end; ++i) {
        const VertexId v = order[static_cast<std::size_t>(i)];
        const auto vi = static_cast<std::size_t>(v);
        const CommunityId best = proposed[vi];
        if (best == kInvalidCommunity) {
          if (cfg.early_termination) et.update(vi, false);
          continue;
        }
        const CommunityId own = curr[vi];
        const bool moved = best != own;
        if (moved) {
          const Weight kv = k[vi];
          const Weight a_s = a[static_cast<std::size_t>(own)];
          const Weight a_t = a[static_cast<std::size_t>(best)];
          degree_term += (a_s - kv) * (a_s - kv) - a_s * a_s +
                         (a_t + kv) * (a_t + kv) - a_t * a_t;
          a[static_cast<std::size_t>(own)] -= kv;
          a[static_cast<std::size_t>(best)] += kv;
          --size[static_cast<std::size_t>(own)];
          ++size[static_cast<std::size_t>(best)];
          intra += 2 * delta_e[vi];
          curr[vi] = best;
          ++moved_count;
        }
        if (cfg.early_termination) et.update(vi, moved);
      }
    }

    ++stats.iterations;
    const Weight curr_mod = q_of();
    const bool converged = curr_mod - prev_mod <= cfg.threshold;
    prev_mod = std::max(prev_mod, curr_mod);
    if (converged || moved_count == 0) break;
  }

  // The incremental tracker is exact when no same-batch neighbours moved and
  // drift-bounded otherwise; report the exactly recomputed value.
  stats.modularity_after = modularity(g, curr, gamma);
  stats.graph_vertices = n;
  stats.graph_arcs = g.num_arcs();
  stats.threshold_used = cfg.threshold;
  PhaseOutput out;
  out.community = std::move(curr);
  out.inactive = cfg.early_termination ? et.inactive_count() : 0;
  return out;
}

}  // namespace

LouvainResult louvain_shared(const graph::Csr& g, const LouvainConfig& cfg,
                             int num_threads) {
  util::WallTimer total_timer;

  if (cfg.vertex_following) {
    // Same preprocessing as the serial driver: collapse degree-1 vertices
    // into their hosts, solve the compacted graph, re-expand.
    const auto vf = vertex_follow_assignment(g);
    const auto pre = coarsen(g, vf);
    LouvainConfig inner = cfg;
    inner.vertex_following = false;
    auto result = louvain_shared(pre.graph, inner, num_threads);
    result.community = compose(pre.old_to_new, result.community);
    result.seconds = total_timer.seconds();
    return result;
  }

  // The run's compute pool (<=0 threads = hardware concurrency), shared by
  // every phase's decision scans.
  util::ThreadPool pool(num_threads);

  LouvainResult result;
  result.community.resize(static_cast<std::size_t>(g.num_vertices()));
  std::iota(result.community.begin(), result.community.end(), CommunityId{0});

  graph::Csr current = g;
  Weight prev_mod = modularity(current, result.community, cfg.resolution);

  for (int phase = 0; phase < cfg.max_phases; ++phase) {
    util::WallTimer phase_timer;
    PhaseStats stats;
    auto phase_out = run_phase(current, cfg, phase, pool, stats);
    stats.seconds = phase_timer.seconds();
    stats.inactive_vertices = phase_out.inactive;
    result.phase_stats.push_back(stats);
    ++result.phases;
    result.total_iterations += stats.iterations;

    const auto coarse = coarsen(current, phase_out.community);
    result.community = compose(result.community, coarse.old_to_new);

    if (stats.modularity_after - prev_mod <= cfg.threshold) break;
    prev_mod = stats.modularity_after;
    current = std::move(coarse.graph);
  }

  result.modularity = prev_mod;
  result.num_communities = compact_ids(result.community);
  result.seconds = total_timer.seconds();
  return result;
}

}  // namespace dlouvain::louvain
