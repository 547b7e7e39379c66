#include "louvain/serial.hpp"

#include <numeric>

#include "louvain/coarsen.hpp"
#include "louvain/modularity.hpp"
#include "louvain/vertex_follow.hpp"
#include "util/prng.hpp"
#include "util/segmented.hpp"
#include "util/timer.hpp"

namespace dlouvain::louvain {

namespace {

/// One phase of asynchronous Louvain over `g`. Returns the final assignment
/// (community ids in vertex-id space) and fills `stats`.
std::vector<CommunityId> run_phase(const graph::Csr& g, const LouvainConfig& cfg,
                                   PhaseStats& stats) {
  const VertexId n = g.num_vertices();
  const Weight two_m = g.total_arc_weight();
  const Weight m = two_m / 2;

  std::vector<CommunityId> community(static_cast<std::size_t>(n));
  std::iota(community.begin(), community.end(), CommunityId{0});
  std::vector<Weight> k(static_cast<std::size_t>(n));
  std::vector<Weight> a(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    k[static_cast<std::size_t>(v)] = g.weighted_degree(v);
    a[static_cast<std::size_t>(v)] = k[static_cast<std::size_t>(v)];
  }

  const double gamma = cfg.resolution;
  Weight prev_mod = modularity(g, community, gamma);
  // Segmented e_{v -> c} reduction, keyed directly by community id (ids
  // live in [0, n) on this engine); reused across every vertex of the
  // phase (util/segmented.hpp).
  util::SegmentedAccumulator<Weight> nbr_weight;

  // Vertices are swept in a seeded-random order, reshuffled every iteration.
  // Index-order sweeps are pathological for asynchronous Louvain on graphs
  // with id-correlated locality (e.g. banded meshes): the first community to
  // form drains every later vertex into it. Random order is the standard
  // Louvain remedy and keeps runs reproducible via cfg.seed.
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), VertexId{0});
  util::Xoshiro256StarStar order_rng(cfg.seed ^ 0x5bf0f3a1e5c9d2b7ULL);

  for (int iter = 0; iter < cfg.max_iterations_per_phase; ++iter) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    for (const VertexId v : order) {
      const CommunityId own = community[static_cast<std::size_t>(v)];
      const Weight kv = k[static_cast<std::size_t>(v)];

      // e_{v -> c} for every neighbouring community (self loops excluded:
      // they move with v and cancel in all gain comparisons).
      nbr_weight.reset(static_cast<std::size_t>(n));
      for (const auto& e : g.neighbors(v)) {
        if (e.dst == v) continue;
        nbr_weight.add(community[static_cast<std::size_t>(e.dst)], e.weight);
      }

      const Weight e_own = nbr_weight.sum_of(own);
      const Weight a_own_less_v = a[static_cast<std::size_t>(own)] - kv;

      // ∆Q argmax over the distinct neighbouring communities (strictly
      // positive gain, ties toward the smaller id -- the engine-shared rule).
      const auto pick = util::best_segment(
          nbr_weight, nbr_weight.segment_of(own), e_own, a_own_less_v, kv, m,
          gamma,
          [&](std::int64_t slot) { return a[static_cast<std::size_t>(slot)]; },
          [](std::int64_t slot) { return static_cast<CommunityId>(slot); });
      const CommunityId best =
          pick.segment >= 0 ? nbr_weight.slots()[static_cast<std::size_t>(pick.segment)]
                            : own;

      if (best != own) {
        a[static_cast<std::size_t>(own)] -= kv;
        a[static_cast<std::size_t>(best)] += kv;
        community[static_cast<std::size_t>(v)] = best;
      }
    }

    ++stats.iterations;
    const Weight curr_mod = modularity(g, community, gamma);
    if (curr_mod - prev_mod <= cfg.threshold) {
      prev_mod = std::max(prev_mod, curr_mod);
      break;
    }
    prev_mod = curr_mod;
  }

  stats.modularity_after = prev_mod;
  stats.graph_vertices = n;
  stats.graph_arcs = g.num_arcs();
  stats.threshold_used = cfg.threshold;
  return community;
}

}  // namespace

LouvainResult louvain_serial(const graph::Csr& g, const LouvainConfig& cfg) {
  util::WallTimer total_timer;

  if (cfg.vertex_following) {
    // Collapse degree-1 vertices into their hosts, run on the compacted
    // graph, then re-expand the assignment to the original vertex set.
    const auto vf = vertex_follow_assignment(g);
    const auto pre = coarsen(g, vf);
    LouvainConfig inner = cfg;
    inner.vertex_following = false;
    auto result = louvain_serial(pre.graph, inner);
    result.community = compose(pre.old_to_new, result.community);
    result.seconds = total_timer.seconds();
    return result;
  }

  LouvainResult result;
  result.community.resize(static_cast<std::size_t>(g.num_vertices()));
  std::iota(result.community.begin(), result.community.end(), CommunityId{0});

  graph::Csr current = g;  // phase-local copy; coarsens each phase
  Weight prev_mod = modularity(current, result.community, cfg.resolution);

  for (int phase = 0; phase < cfg.max_phases; ++phase) {
    util::WallTimer phase_timer;
    PhaseStats stats;
    const auto assignment = run_phase(current, cfg, stats);
    stats.seconds = phase_timer.seconds();
    result.phase_stats.push_back(stats);
    ++result.phases;
    result.total_iterations += stats.iterations;

    const auto coarse = coarsen(current, assignment);
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
