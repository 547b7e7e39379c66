// Tests for modularity, coarsening, serial Louvain, and the shared-memory
// comparator -- including the key property tests: (1) the ΔQ move formula
// matches brute-force modularity recomputation, and (2) coarsening preserves
// modularity exactly.
#include <gtest/gtest.h>

#include <numeric>

#include "gen/lfr.hpp"
#include "gen/simple.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"
#include "louvain/coarsen.hpp"
#include "louvain/config.hpp"
#include "louvain/early_term.hpp"
#include "louvain/modularity.hpp"
#include "louvain/serial.hpp"
#include "louvain/shared.hpp"
#include "util/prng.hpp"

namespace dl = dlouvain::louvain;
namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;
using dlouvain::CommunityId;
using dlouvain::Edge;
using dlouvain::VertexId;
using dlouvain::Weight;

namespace {

dg::Csr two_triangles_bridge() {
  // Two triangles {0,1,2} and {3,4,5} joined by edge 2-3.
  return dg::from_edges(6, {{0, 1, 1},
                            {1, 2, 1},
                            {0, 2, 1},
                            {3, 4, 1},
                            {4, 5, 1},
                            {3, 5, 1},
                            {2, 3, 1}});
}

std::vector<CommunityId> singletons(VertexId n) {
  std::vector<CommunityId> c(static_cast<std::size_t>(n));
  std::iota(c.begin(), c.end(), CommunityId{0});
  return c;
}

}  // namespace

TEST(Modularity, SingletonPartitionOfRingIsNegative) {
  const auto g = dg::from_edges(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}});
  // Q = 0 - sum (k/2m)^2 = -4 * (2/8)^2 = -0.25.
  EXPECT_NEAR(dl::modularity(g, singletons(4)), -0.25, 1e-12);
}

TEST(Modularity, AllInOneCommunityIsZero) {
  const auto g = two_triangles_bridge();
  const std::vector<CommunityId> one(6, 0);
  EXPECT_NEAR(dl::modularity(g, one), 0.0, 1e-12);
}

TEST(Modularity, TwoTrianglesSplitBeatsMerged) {
  const auto g = two_triangles_bridge();
  const std::vector<CommunityId> split{0, 0, 0, 1, 1, 1};
  // 2m = 14; intra both dirs = 12; degree sums 7 and 7.
  // Q = 12/14 - 2*(7/14)^2 = 6/7 - 1/2.
  EXPECT_NEAR(dl::modularity(g, split), 6.0 / 7.0 - 0.5, 1e-12);
  EXPECT_GT(dl::modularity(g, split), 0.0);
}

TEST(Modularity, AgreesWithReferenceOnRandomPartitions) {
  const auto graph = gen::erdos_renyi(120, 0.08, 21);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  dlouvain::util::Xoshiro256StarStar rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<CommunityId> part(120);
    const int k = 1 + static_cast<int>(rng.next_below(10));
    for (auto& c : part) c = static_cast<CommunityId>(rng.next_below(k));
    EXPECT_NEAR(dl::modularity(g, part), dl::modularity_reference(g, part), 1e-12);
  }
}

TEST(Modularity, SelfLoopsHandledConsistently) {
  // Weighted graph with a self loop; the two implementations must agree.
  const auto g = dg::from_edges(3, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 2, 3.0}});
  const std::vector<CommunityId> part{0, 0, 1};
  EXPECT_NEAR(dl::modularity(g, part), dl::modularity_reference(g, part), 1e-12);
}

TEST(Modularity, EmptyGraphIsZero) {
  const auto g = dg::from_edges(3, {});
  EXPECT_EQ(dl::modularity(g, singletons(3)), 0.0);
}

TEST(Modularity, MismatchedAssignmentThrows) {
  const auto g = two_triangles_bridge();
  std::vector<CommunityId> bad(3, 0);
  EXPECT_THROW((void)dl::modularity(g, bad), std::invalid_argument);
}

// ---- The ΔQ property test: gain formula == brute force -------------------

TEST(DeltaQ, GainFormulaMatchesBruteForceRecomputation) {
  // For random graphs, partitions, vertices, and targets: the analytic gain
  //   (e_t - e_own)/m - k_v (a_t - a_{own\v}) / (2 m^2)
  // must equal Q(after move) - Q(before move).
  dlouvain::util::Xoshiro256StarStar rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const auto graph = gen::erdos_renyi(40, 0.15, 100 + trial);
    const auto g = dg::from_edges(graph.num_vertices, graph.edges);
    const VertexId n = g.num_vertices();
    const Weight two_m = g.total_arc_weight();
    if (two_m == 0) continue;
    const Weight m = two_m / 2;

    std::vector<CommunityId> part(static_cast<std::size_t>(n));
    for (auto& c : part) c = static_cast<CommunityId>(rng.next_below(6));

    std::vector<Weight> a(6, 0.0);
    for (VertexId v = 0; v < n; ++v)
      a[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] += g.weighted_degree(v);

    for (int probe = 0; probe < 20; ++probe) {
      const auto v = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto target = static_cast<CommunityId>(rng.next_below(6));
      const CommunityId own = part[static_cast<std::size_t>(v)];
      if (target == own) continue;

      Weight e_own = 0;
      Weight e_target = 0;
      for (const auto& e : g.neighbors(v)) {
        if (e.dst == v) continue;
        const CommunityId cd = part[static_cast<std::size_t>(e.dst)];
        if (cd == own) e_own += e.weight;
        if (cd == target) e_target += e.weight;
      }
      const Weight kv = g.weighted_degree(v);
      const Weight gain =
          (e_target - e_own) / m -
          kv * (a[static_cast<std::size_t>(target)] -
                (a[static_cast<std::size_t>(own)] - kv)) /
              (2 * m * m);

      const Weight before = dl::modularity(g, part);
      part[static_cast<std::size_t>(v)] = target;
      const Weight after = dl::modularity(g, part);
      part[static_cast<std::size_t>(v)] = own;

      EXPECT_NEAR(gain, after - before, 1e-10)
          << "trial " << trial << " vertex " << v << " -> " << target;
    }
  }
}

// ---- Coarsening properties ------------------------------------------------

TEST(Coarsen, PreservesTotalWeightAndDegrees) {
  const auto g = two_triangles_bridge();
  const std::vector<CommunityId> part{0, 0, 0, 1, 1, 1};
  const auto coarse = dl::coarsen(g, part);
  EXPECT_EQ(coarse.graph.num_vertices(), 2);
  EXPECT_DOUBLE_EQ(coarse.graph.total_arc_weight(), g.total_arc_weight());
  // Meta-degree = sum of member degrees (7 each here).
  EXPECT_DOUBLE_EQ(coarse.graph.weighted_degree(0), 7.0);
  EXPECT_DOUBLE_EQ(coarse.graph.weighted_degree(1), 7.0);
}

TEST(Coarsen, ModularityIsInvariantUnderCoarsening) {
  // Q(g, part) == Q(coarsen(g, part), singletons): THE invariant the whole
  // multi-phase scheme rests on. Check across random graphs and partitions.
  dlouvain::util::Xoshiro256StarStar rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const auto graph = gen::erdos_renyi(60, 0.1, 500 + trial);
    const auto g = dg::from_edges(graph.num_vertices, graph.edges);
    std::vector<CommunityId> part(60);
    for (auto& c : part) c = static_cast<CommunityId>(rng.next_below(7));
    const auto coarse = dl::coarsen(g, part);
    EXPECT_NEAR(dl::modularity(g, part),
                dl::modularity(coarse.graph, singletons(coarse.graph.num_vertices())),
                1e-12);
  }
}

TEST(Coarsen, TwoLevelCoarseningComposes) {
  const auto g = two_triangles_bridge();
  const std::vector<CommunityId> part{0, 0, 1, 1, 2, 2};
  const auto level1 = dl::coarsen(g, part);
  const std::vector<CommunityId> part2{0, 0, 1};
  const auto level2 = dl::coarsen(level1.graph, part2);
  const auto composed = dl::compose(level1.old_to_new, part2);
  EXPECT_NEAR(dl::modularity(g, composed),
              dl::modularity(level2.graph, singletons(level2.graph.num_vertices())),
              1e-12);
}

TEST(Coarsen, CompactIdsProducesDenseRange) {
  std::vector<CommunityId> ids{42, 7, 42, 100, 7};
  const auto k = dl::compact_ids(ids);
  EXPECT_EQ(k, 3);
  EXPECT_EQ(ids, (std::vector<CommunityId>{1, 0, 1, 2, 0}));
}

// ---- EtState ---------------------------------------------------------------

TEST(EarlyTerm, ProbabilityDecaysAndResets) {
  dl::EtState et(1, 0.5, 0.02, 1);
  EXPECT_TRUE(et.is_active(0, 0, 0, 0));  // P = 1
  et.update(0, false);                    // P = 0.5
  et.update(0, false);                    // P = 0.25
  et.update(0, true);                     // reset to 1
  EXPECT_TRUE(et.is_active(0, 0, 0, 5));
  for (int i = 0; i < 10; ++i) et.update(0, false);
  EXPECT_FALSE(et.is_active(0, 0, 0, 6));  // below cutoff -> inactive
  EXPECT_EQ(et.inactive_count(), 1);
}

TEST(EarlyTerm, AlphaZeroNeverDeactivates) {
  dl::EtState et(1, 0.0, 0.02, 1);
  for (int i = 0; i < 100; ++i) et.update(0, false);
  EXPECT_TRUE(et.is_active(0, 0, 0, 0));
  EXPECT_EQ(et.inactive_count(), 0);
}

TEST(EarlyTerm, AlphaOneDeactivatesImmediately) {
  dl::EtState et(1, 1.0, 0.02, 1);
  et.update(0, false);
  EXPECT_FALSE(et.is_active(0, 0, 0, 1));
}

// ---- Serial Louvain --------------------------------------------------------

TEST(SerialLouvain, FindsTheTwoTriangles) {
  const auto g = two_triangles_bridge();
  const auto result = dl::louvain_serial(g);
  EXPECT_EQ(result.num_communities, 2);
  EXPECT_EQ(result.community[0], result.community[1]);
  EXPECT_EQ(result.community[1], result.community[2]);
  EXPECT_EQ(result.community[3], result.community[4]);
  EXPECT_EQ(result.community[4], result.community[5]);
  EXPECT_NE(result.community[0], result.community[3]);
  EXPECT_NEAR(result.modularity, 6.0 / 7.0 - 0.5, 1e-12);
}

TEST(SerialLouvain, ReportedModularityMatchesRecomputation) {
  const auto graph = gen::lfr([] {
    gen::LfrParams p;
    p.num_vertices = 400;
    p.avg_degree = 12;
    p.max_degree = 36;
    p.mu = 0.2;
    return p;
  }());
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = dl::louvain_serial(g);
  EXPECT_NEAR(result.modularity, dl::modularity(g, result.community), 1e-9);
}

TEST(SerialLouvain, CliqueChainRecoversCliques) {
  const auto graph = gen::clique_chain(8, 6);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = dl::louvain_serial(g);
  EXPECT_EQ(result.num_communities, 8);
  // Every clique ends up in one community.
  for (VertexId c = 0; c < 8; ++c)
    for (VertexId i = 1; i < 6; ++i)
      EXPECT_EQ(result.community[static_cast<std::size_t>(c * 6)],
                result.community[static_cast<std::size_t>(c * 6 + i)]);
}

TEST(SerialLouvain, HighModularityOnPlantedStructure) {
  gen::Ssca2Params p;
  p.num_vertices = 1000;
  p.max_clique_size = 25;
  p.inter_clique_prob = 0.01;
  const auto graph = gen::ssca2(p);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = dl::louvain_serial(g);
  EXPECT_GT(result.modularity, 0.9);
}

TEST(SerialLouvain, SingleVertexAndEmptyGraphDoNotCrash) {
  const auto g1 = dg::from_edges(1, {});
  const auto r1 = dl::louvain_serial(g1);
  EXPECT_EQ(r1.num_communities, 1);
  const auto g2 = dg::from_edges(5, {});
  const auto r2 = dl::louvain_serial(g2);
  EXPECT_EQ(r2.num_communities, 5);  // no edges -> everyone stays singleton
}

TEST(SerialLouvain, PhaseStatsAreCoherent) {
  const auto graph = gen::clique_chain(10, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = dl::louvain_serial(g);
  EXPECT_EQ(result.phase_stats.size(), static_cast<std::size_t>(result.phases));
  long total = 0;
  for (const auto& ps : result.phase_stats) {
    total += ps.iterations;
    EXPECT_GT(ps.iterations, 0);
    EXPECT_GT(ps.graph_vertices, 0);
  }
  EXPECT_EQ(total, result.total_iterations);
  // Modularity never decreases across phases.
  for (std::size_t i = 1; i < result.phase_stats.size(); ++i)
    EXPECT_GE(result.phase_stats[i].modularity_after + 1e-12,
              result.phase_stats[i - 1].modularity_after);
}

// ---- Shared-memory Louvain --------------------------------------------------

TEST(SharedLouvain, MatchesSerialOnCliqueChain) {
  const auto graph = gen::clique_chain(8, 6);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto serial = dl::louvain_serial(g);
  const auto shared = dl::louvain_shared(g);
  EXPECT_EQ(shared.num_communities, serial.num_communities);
  EXPECT_NEAR(shared.modularity, serial.modularity, 1e-9);
}

TEST(SharedLouvain, QualityWithinOnePercentOfSerialOnLfr) {
  gen::LfrParams p;
  p.num_vertices = 600;
  p.avg_degree = 14;
  p.max_degree = 42;
  p.mu = 0.25;
  const auto graph = gen::lfr(p);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto serial = dl::louvain_serial(g);
  const auto shared = dl::louvain_shared(g);
  EXPECT_GT(shared.modularity, serial.modularity * 0.99);
}

TEST(SharedLouvain, DeterministicAtFixedThreadCount) {
  // The asynchronous sweep is racy across threads (Grappolo-style), so only
  // same-configuration determinism is promised.
  const auto graph = gen::clique_chain(12, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto first = dl::louvain_shared(g, {}, 1);
  const auto second = dl::louvain_shared(g, {}, 1);
  EXPECT_EQ(first.community, second.community);
  EXPECT_EQ(first.modularity, second.modularity);
  // Multi-thread runs still land in the same quality band.
  const auto t4 = dl::louvain_shared(g, {}, 4);
  EXPECT_NEAR(t4.modularity, first.modularity, 0.02);
}

TEST(SharedLouvain, ReportedModularityMatchesRecomputation) {
  gen::Ssca2Params p;
  p.num_vertices = 800;
  p.max_clique_size = 20;
  const auto graph = gen::ssca2(p);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto result = dl::louvain_shared(g);
  EXPECT_NEAR(result.modularity, dl::modularity(g, result.community), 1e-9);
}

class SharedEtSweep : public ::testing::TestWithParam<double> {};

TEST_P(SharedEtSweep, EtKeepsQualityWithinBand) {
  // The Table I property: across the whole alpha range, ET trades time for
  // at most a small modularity loss.
  const double alpha = GetParam();
  gen::Ssca2Params p;
  p.num_vertices = 800;
  p.max_clique_size = 20;
  const auto graph = gen::ssca2(p);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);

  dl::LouvainConfig base;
  const auto baseline = dl::louvain_shared(g, base);

  dl::LouvainConfig cfg;
  cfg.early_termination = true;
  cfg.et_alpha = alpha;
  const auto et = dl::louvain_shared(g, cfg);

  EXPECT_GT(et.modularity, baseline.modularity - 0.05)
      << "alpha=" << alpha << " lost too much quality";
}

INSTANTIATE_TEST_SUITE_P(AlphaRange, SharedEtSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

TEST(SharedLouvain, EtReducesWorkOnStructuredInput) {
  // With alpha = 1 vertices deactivate after the first quiet iteration, so
  // the iteration count across phases must not exceed the baseline's.
  const auto graph = gen::clique_chain(20, 8);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto baseline = dl::louvain_shared(g);
  dl::LouvainConfig cfg;
  cfg.early_termination = true;
  cfg.et_alpha = 1.0;
  const auto aggressive = dl::louvain_shared(g, cfg);
  EXPECT_LE(aggressive.total_iterations, baseline.total_iterations + 2);
}
