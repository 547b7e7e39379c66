// The segmented sweep kernel (util/segmented.hpp), pinned as tests:
//
//  * best_segment() picks exactly what the selection rule says -- the
//    strictly-positive maximum gain, smallest community id on ties, never
//    the vertex's own segment;
//  * the runtime-dispatched AVX2 clone of the gain pass is bitwise identical
//    to the portable pass (no FMA contraction);
//  * the engines that run the kernel are bitwise thread-invariant on every
//    topology class (ring, star, RMAT, LFR).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dlouvain.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/csr.hpp"
#include "louvain/shared.hpp"
#include "util/prng.hpp"
#include "util/segmented.hpp"

namespace {

using namespace dlouvain;

graph::Csr star(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back({0, v, 1.0});
  return graph::from_edges(n, edges);
}

graph::Csr rmat9() {
  gen::RmatParams p;
  p.scale = 9;
  p.edges_per_vertex = 8;
  p.seed = 42;
  const auto g = gen::rmat(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

graph::Csr lfr600() {
  gen::LfrParams p;
  p.num_vertices = 600;
  p.avg_degree = 12;
  p.max_degree = 40;
  p.min_community = 15;
  p.max_community = 60;
  p.mu = 0.2;
  p.seed = 3;
  const auto g = gen::lfr(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

struct Fixture {
  const char* name;
  graph::Csr g;
};

std::vector<Fixture> fixtures() {
  const auto ring = gen::ring(512);
  std::vector<Fixture> out;
  out.push_back({"ring", graph::from_edges(ring.num_vertices, ring.edges)});
  out.push_back({"star", star(400)});
  out.push_back({"rmat", rmat9()});
  out.push_back({"lfr", lfr600()});
  return out;
}

/// Takes two Plan Results or two comparator louvain::LouvainResults.
template <typename R>
void expect_bitwise_equal(const R& got, const R& want, const std::string& label) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.modularity),
            std::bit_cast<std::uint64_t>(want.modularity))
      << label;
  EXPECT_EQ(got.community, want.community) << label;
  EXPECT_EQ(got.num_communities, want.num_communities) << label;
  EXPECT_EQ(got.phases, want.phases) << label;
  EXPECT_EQ(got.total_iterations, want.total_iterations) << label;
}

// ---- the kernel against the selection rule -----------------------------------

TEST(SegmentedKernel, ArgmaxFollowsTheSelectionRule) {
  // Random vertices with many exact ties: segment sums and candidate degrees
  // come from tiny value sets, so equal gains are common, and community ids
  // are a scrambled function of the slot so the smallest id is neither the
  // smallest slot nor the first touched. The reference scans every segment
  // with the kernel's own gain expression.
  util::Xoshiro256StarStar rng(2024);
  util::SegmentedAccumulator<double> seg;
  const auto id_of = [](std::int64_t slot) {
    return static_cast<CommunityId>((slot * 37) % 101);
  };
  const auto deg_of = [](std::int64_t slot) {
    return 2.0 + static_cast<double>(slot % 3);
  };
  int moves = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    seg.reset(101);
    const auto arcs = 1 + rng.next_below(12);
    for (std::uint64_t a = 0; a < arcs; ++a)
      seg.add(static_cast<std::int64_t>(rng.next_below(12)),
              static_cast<double>(1 + rng.next_below(2)));
    const auto own_slot = static_cast<std::int64_t>(rng.next_below(12));
    const std::int64_t own_segment = seg.segment_of(own_slot);
    const double e_own = seg.sum_of(own_slot);
    const double kv = static_cast<double>(1 + rng.next_below(3));
    const double a_own_less_v = deg_of(own_slot) - kv;
    const double m = 20.0;
    const double gamma = 1.0;

    std::int64_t want = -1;
    double want_gain = 0;
    for (std::size_t i = 0; i < seg.segments(); ++i) {
      if (static_cast<std::int64_t>(i) == own_segment) continue;
      const double gain = (seg.sums()[i] - e_own) / m -
                          gamma * kv * (deg_of(seg.slots()[i]) - a_own_less_v) / (2 * m * m);
      if (!(gain > 0)) continue;
      if (want < 0 || gain > want_gain ||
          (gain == want_gain && id_of(seg.slots()[i]) <
                                    id_of(seg.slots()[static_cast<std::size_t>(want)]))) {
        want = static_cast<std::int64_t>(i);
        want_gain = gain;
      }
    }
    const auto got =
        util::best_segment(seg, own_segment, e_own, a_own_less_v, kv, m, gamma, deg_of, id_of);
    ASSERT_EQ(got.segment, want) << "trial " << trial;
    if (want >= 0) ++moves;
  }
  EXPECT_GT(moves, 0);  // the trials exercise real moves, not only "stay"
}

TEST(SegmentedKernel, Avx2CloneMatchesThePortablePassBitwise) {
#if DLOUVAIN_SEGMENTED_MULTIVERSION
  if (!util::detail::cpu_has_avx2()) GTEST_SKIP() << "CPU has no AVX2";
  util::Xoshiro256StarStar rng(7);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                              std::size_t{37}, std::size_t{1000}}) {
    std::vector<double> sums(n), deg(n), portable(n), avx2(n);
    for (std::size_t i = 0; i < n; ++i) {
      sums[i] = rng.next_unit() * 10.0;
      deg[i] = rng.next_unit() * 1e4;
    }
    const double e_own = 1.25, a_own_less_v = 3.5, kv = 7.0, m = 12345.678, gamma = 0.9;
    util::detail::gain_pass(n, sums.data(), deg.data(), portable.data(), e_own,
                            a_own_less_v, kv, m, gamma);
    util::detail::gain_pass_avx2(n, sums.data(), deg.data(), avx2.data(), e_own,
                                 a_own_less_v, kv, m, gamma);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(avx2[i]),
                std::bit_cast<std::uint64_t>(portable[i]))
          << "n " << n << " element " << i;
  }
#else
  GTEST_SKIP() << "built without the multiversioned gain pass";
#endif
}

// ---- engine thread invariance on every topology ------------------------------

TEST(Sweep, SharedEngineIsThreadInvariantOnEveryTopology) {
  for (const auto& f : fixtures()) {
    const auto one = louvain::louvain_shared(f.g, {.seed = 123}, 1);
    for (const int threads : {4, 16}) {
      expect_bitwise_equal(louvain::louvain_shared(f.g, {.seed = 123}, threads), one,
                           std::string("shared ") + f.name + " t" +
                               std::to_string(threads));
    }
  }
}

TEST(Sweep, DistributedEngineIsThreadInvariantOnEveryTopology) {
  for (const auto& f : fixtures()) {
    const auto one = Plan::distributed(4).threads(1).seed(123).run(f.g);
    for (const int threads : {4, 16}) {
      expect_bitwise_equal(Plan::distributed(4).threads(threads).seed(123).run(f.g),
                           one,
                           std::string("dist ") + f.name + " t" +
                               std::to_string(threads));
    }
  }
}

}  // namespace
