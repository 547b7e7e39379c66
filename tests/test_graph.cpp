// Tests for the graph substrate: CSR assembly, partitions, the distributed
// graph (ghost discovery = paper Algorithm 4), and binary I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <utility>

#include "comm/world.hpp"
#include "graph/binary_io.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "graph/partition.hpp"
#include "util/parallel.hpp"

namespace dg = dlouvain::graph;
namespace dc = dlouvain::comm;
using dlouvain::Edge;
using dlouvain::EdgeId;
using dlouvain::VertexId;
using dlouvain::Weight;

namespace {

/// Triangle 0-1-2 plus pendant 3 attached to 2.
std::vector<Edge> triangle_plus_pendant() {
  return {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}};
}

}  // namespace

TEST(Csr, BuildsSymmetricFromUndirectedEdges) {
  const auto g = dg::from_edges(4, triangle_plus_pendant());
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_arcs(), 8);  // 4 undirected edges -> 8 arcs
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(2), 3);
  EXPECT_EQ(g.degree(3), 1);
}

TEST(Csr, NeighborsAreSortedAndWeighted) {
  const auto g = dg::from_edges(4, triangle_plus_pendant());
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].dst, 0);
  EXPECT_EQ(nbrs[1].dst, 1);
  EXPECT_EQ(nbrs[2].dst, 3);
  for (const auto& e : nbrs) EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

TEST(Csr, CoalesceMergesParallelEdges) {
  std::vector<Edge> edges{{0, 1, 1.0}, {0, 1, 2.5}};
  const auto g = dg::from_edges(2, edges);
  EXPECT_EQ(g.num_arcs(), 2);  // one merged arc each direction
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 3.5);
  EXPECT_DOUBLE_EQ(g.neighbors(1)[0].weight, 3.5);
}

TEST(Csr, SelfLoopCountsTwiceInDegree) {
  // Vertex 0 has a self loop of weight 2 and an edge to 1 of weight 1.
  std::vector<Edge> edges{{0, 0, 2.0}, {0, 1, 1.0}};
  const auto g = dg::from_edges(2, edges);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 5.0);  // 2*2 + 1
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 1.0);
  EXPECT_DOUBLE_EQ(g.total_arc_weight(), 6.0);  // 2m
}

TEST(Csr, DuplicateArcsFoldInArrivalOrder) {
  // 1e16 + 1.0 rounds back to 1e16, so a left-to-right fold of 1e16 then
  // twenty 1.0s differs from one that adds the 1.0s first.
  const auto left_fold = [](const std::vector<Weight>& ws) {
    Weight sum = 0;
    for (const Weight w : ws) sum += w;
    return sum;
  };
  std::vector<Weight> big_first{1e16};
  big_first.resize(21, 1.0);
  const std::vector<Weight> big_last(big_first.rbegin(), big_first.rend());
  ASSERT_NE(left_fold(big_first), left_fold(big_last));

  // Row 0 gets big_first toward 1, row 2 gets big_last toward 1, interleaved
  // with arcs of other rows and other destinations.
  std::vector<Edge> arcs;
  for (std::size_t i = 0; i < big_first.size(); ++i) {
    arcs.push_back({2, 1, big_last[i]});
    arcs.push_back({0, 3, 0.5});
    arcs.push_back({0, 1, big_first[i]});
    arcs.push_back({1, 0, 1.0});
  }
  const auto g = dg::build_csr(4, arcs);
  ASSERT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.neighbors(0)[0].dst, 1);
  EXPECT_EQ(g.neighbors(0)[0].weight, left_fold(big_first));
  EXPECT_EQ(g.neighbors(0)[1].dst, 3);
  ASSERT_EQ(g.degree(2), 1);
  EXPECT_EQ(g.neighbors(2)[0].weight, left_fold(big_last));

  // DistGraph::build folds a pair's copies in arrival order: source rank,
  // then list order. Rank 0 sends 1e16 first, every rank sends 1.0s, so only
  // the rank-then-list order gives big_first's bits.
  for (const int p : {1, 2, 3, 4}) {
    for (const int threads : {1, 4}) {
      std::vector<Weight> order;
      for (int r = 0; r < p; ++r) {
        if (r == 0) order.push_back(1e16);
        order.resize(order.size() + 17, 1.0);
      }
      dc::run(p, [&](dc::Comm& comm) {
        std::vector<Edge> mine;
        if (comm.rank() == 0) mine.push_back({0, 7, 1e16});
        for (int i = 0; i < 17; ++i) mine.push_back({0, 7, 1.0});
        dlouvain::util::ThreadPool pool(threads);
        const auto dist = dg::DistGraph::build(
            comm, dg::partition_even_vertices(8, p), std::move(mine), true, &pool);
        if (dist.owns(0)) {
          ASSERT_EQ(dist.local().degree(dist.to_local(0)), 1);
          EXPECT_EQ(dist.local().neighbors(dist.to_local(0))[0].weight, left_fold(order))
              << "p=" << p << " threads=" << threads;
        }
        if (dist.owns(7)) {
          ASSERT_EQ(dist.local().degree(dist.to_local(7)), 1);
          EXPECT_EQ(dist.local().neighbors(dist.to_local(7))[0].weight, left_fold(order))
              << "p=" << p << " threads=" << threads;
        }
      });
    }
  }
}

TEST(Csr, TotalArcWeightIsTwiceEdgeWeight) {
  const auto g = dg::from_edges(4, triangle_plus_pendant());
  EXPECT_DOUBLE_EQ(g.total_arc_weight(), 8.0);  // 4 unit edges -> 2m = 8
}

TEST(Csr, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(dg::from_edges(2, {{0, 5, 1.0}}), std::out_of_range);
}

TEST(Csr, EmptyGraph) {
  const auto g = dg::from_edges(3, {});
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_arcs(), 0);
  EXPECT_DOUBLE_EQ(g.total_arc_weight(), 0.0);
}

TEST(Partition, EvenVerticesSpreadsRemainder) {
  const auto part = dg::partition_even_vertices(10, 4);
  EXPECT_EQ(part.num_ranks(), 4);
  EXPECT_EQ(part.num_vertices(), 10);
  EXPECT_EQ(part.count(0), 3);
  EXPECT_EQ(part.count(1), 3);
  EXPECT_EQ(part.count(2), 2);
  EXPECT_EQ(part.count(3), 2);
}

TEST(Partition, OwnerIsConsistentWithIntervals) {
  const auto part = dg::partition_even_vertices(100, 7);
  for (VertexId v = 0; v < 100; ++v) {
    const auto r = part.owner(v);
    EXPECT_GE(v, part.begin(r));
    EXPECT_LT(v, part.end(r));
  }
}

TEST(Partition, OwnerThrowsOutOfRange) {
  const auto part = dg::partition_even_vertices(10, 2);
  EXPECT_THROW((void)part.owner(-1), std::out_of_range);
  EXPECT_THROW((void)part.owner(10), std::out_of_range);
}

TEST(Partition, EvenEdgesBalancesSkewedDegrees) {
  // Vertex 0 carries half of all arcs; edge-balanced split should isolate it.
  std::vector<EdgeId> degree{100, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10};
  const auto part = dg::partition_even_edges(
      11, 2, [&](VertexId v) { return degree[static_cast<std::size_t>(v)]; });
  EXPECT_EQ(part.num_ranks(), 2);
  // Rank 0 should own just vertex 0 (100 arcs vs 100 arcs for the rest).
  EXPECT_EQ(part.end(0), 1);
}

TEST(Partition, EvenEdgesCoversAllVerticesForAnyP) {
  for (int p : {1, 2, 3, 5, 8}) {
    const auto part =
        dg::partition_even_edges(20, p, [](VertexId) { return EdgeId{3}; });
    EXPECT_EQ(part.num_vertices(), 20);
    VertexId total = 0;
    for (int r = 0; r < p; ++r) total += part.count(r);
    EXPECT_EQ(total, 20);
  }
}

TEST(Partition, MoreRanksThanVerticesLeavesEmptyTails) {
  const auto part = dg::partition_even_vertices(3, 8);
  VertexId total = 0;
  for (int r = 0; r < 8; ++r) total += part.count(r);
  EXPECT_EQ(total, 3);
  for (VertexId v = 0; v < 3; ++v) EXPECT_NO_THROW((void)part.owner(v));
}

class DistGraphAtP : public ::testing::TestWithParam<int> {};

TEST_P(DistGraphAtP, PreservesGlobalInvariants) {
  const int p = GetParam();
  const auto global = dg::from_edges(4, triangle_plus_pendant());
  dc::run(p, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, global);
    EXPECT_EQ(dist.global_n(), 4);
    EXPECT_DOUBLE_EQ(dist.total_weight(), global.total_arc_weight());
    EXPECT_EQ(dist.global_arcs(), global.num_arcs());
    // Each owned vertex's degree matches the global graph.
    for (VertexId gv = dist.v_begin(); gv < dist.v_end(); ++gv) {
      EXPECT_DOUBLE_EQ(dist.weighted_degree(gv), global.weighted_degree(gv));
      EXPECT_EQ(dist.local().degree(dist.to_local(gv)), global.degree(gv));
    }
  });
}

TEST_P(DistGraphAtP, GhostsAreExactlyRemoteEndpoints) {
  const int p = GetParam();
  const auto global = dg::from_edges(4, triangle_plus_pendant());
  dc::run(p, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, global);
    for (const auto gv : dist.ghosts()) {
      EXPECT_FALSE(dist.owns(gv));
      EXPECT_GE(dist.ghost_slot(gv), 0);
    }
    // Every remote endpoint of a local edge is a ghost.
    for (const auto& e : dist.local().edges()) {
      if (!dist.owns(e.dst)) {
        EXPECT_GE(dist.ghost_slot(e.dst), 0);
      }
    }
    // Owned vertices are never ghosts.
    for (VertexId gv = dist.v_begin(); gv < dist.v_end(); ++gv)
      EXPECT_EQ(dist.ghost_slot(gv), -1);
  });
}

TEST_P(DistGraphAtP, MirrorListsMatchGhostLists) {
  const int p = GetParam();
  const auto global = dg::from_edges(4, triangle_plus_pendant());
  dc::run(p, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, global);
    // mirrors()[r] on this rank must equal ghosts_by_owner()[me] on rank r.
    // Verify by symmetric exchange: send my ghosts_by_owner to each owner and
    // compare with what DistGraph computed.
    auto expect = comm.alltoallv<VertexId>(dist.ghosts_by_owner());
    ASSERT_EQ(expect.size(), dist.mirrors().size());
    for (std::size_t r = 0; r < expect.size(); ++r) EXPECT_EQ(expect[r], dist.mirrors()[r]);
    // All mirrored vertices are owned here.
    for (const auto& list : dist.mirrors())
      for (const auto gv : list) EXPECT_TRUE(dist.owns(gv));
  });
}

TEST_P(DistGraphAtP, BuildFromScatteredEdgesMatchesReplicated) {
  const int p = GetParam();
  const auto edges = triangle_plus_pendant();
  dc::run(p, [&](dc::Comm& comm) {
    // Scatter: rank r contributes edges r, r+p, r+2p, ... of the list.
    std::vector<Edge> mine;
    for (std::size_t i = comm.rank(); i < edges.size(); i += p) mine.push_back(edges[i]);
    const auto part = dg::partition_even_vertices(4, comm.size());
    const auto dist = dg::DistGraph::build(comm, part, std::move(mine), true);
    EXPECT_DOUBLE_EQ(dist.total_weight(), 8.0);
    EXPECT_EQ(dist.global_arcs(), 8);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, DistGraphAtP, ::testing::Values(1, 2, 3, 4));

TEST(DistGraph, FromReplicatedMatchesBuild) {
  std::vector<std::pair<const char*, dg::Csr>> inputs;
  inputs.emplace_back("triangle+pendant", dg::from_edges(4, triangle_plus_pendant()));
  {
    std::vector<Edge> star;
    for (VertexId v = 1; v <= 30; ++v) star.push_back({0, v, 1.0});
    inputs.emplace_back("star", dg::from_edges(31, star));
  }
  {
    // Weighted, with self loops and parallel edges (folded by from_edges).
    std::uint64_t state = 7;
    const auto next = [&state](std::uint64_t bound) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<VertexId>((state >> 33) % bound);
    };
    std::vector<Edge> edges;
    for (int i = 0; i < 1200; ++i) {
      const VertexId u = next(200);
      const VertexId v = i % 10 == 0 ? u : next(200);
      edges.push_back({u, v, 0.5 * static_cast<Weight>(1 + next(6))});
    }
    inputs.emplace_back("weighted-loops", dg::from_edges(200, edges));
  }

  for (const auto& [name, global] : inputs) {
    for (const int p : {1, 2, 3, 4, 5}) {
      for (const auto kind : {dg::PartitionKind::kEvenVertices, dg::PartitionKind::kEvenEdges}) {
        dc::run(p, [&](dc::Comm& comm) {
          const auto slice = dg::DistGraph::from_replicated(comm, global, kind);
          std::vector<Edge> rows;
          for (VertexId v = slice.v_begin(); v < slice.v_end(); ++v)
            for (const auto& e : global.neighbors(v)) rows.push_back({v, e.dst, e.weight});
          const auto built = dg::DistGraph::build(comm, slice.partition(), std::move(rows), false);
          const std::string where = std::string(name) + " p=" + std::to_string(p) +
                                    " rank=" + std::to_string(comm.rank());
          EXPECT_EQ(slice.local().offsets(), built.local().offsets()) << where;
          EXPECT_EQ(slice.local().edges(), built.local().edges()) << where;
          for (VertexId v = slice.v_begin(); v < slice.v_end(); ++v)
            EXPECT_EQ(slice.weighted_degree(v), built.weighted_degree(v)) << where;
          EXPECT_EQ(slice.total_weight(), built.total_weight()) << where;
          EXPECT_EQ(slice.global_arcs(), built.global_arcs()) << where;
          EXPECT_EQ(slice.ghosts(), built.ghosts()) << where;
          EXPECT_EQ(slice.ghosts_by_owner(), built.ghosts_by_owner()) << where;
          EXPECT_EQ(slice.mirrors(), built.mirrors()) << where;
          EXPECT_EQ(slice.dst_slots(), built.dst_slots()) << where;
          EXPECT_EQ(slice.boundary_flags(), built.boundary_flags()) << where;
          EXPECT_EQ(slice.neighbor_ranks(), built.neighbor_ranks()) << where;
        });
      }
    }
  }

  // Rows must arrive strictly ascending: an unsorted or a duplicated row is
  // refused, not re-sorted.
  const dg::Csr unsorted(3, {0, 2, 3, 4}, {{2, 1.0}, {1, 1.0}, {0, 1.0}, {0, 1.0}});
  const dg::Csr duplicated(3, {0, 1, 3, 4}, {{1, 1.0}, {0, 1.0}, {0, 1.0}, {0, 1.0}});
  for (const int p : {1, 2, 3}) {
    EXPECT_THROW(dc::run(p, [&](dc::Comm& comm) {
                   (void)dg::DistGraph::from_replicated(comm, unsorted,
                                                        dg::PartitionKind::kEvenVertices);
                 }),
                 std::invalid_argument);
    EXPECT_THROW(dc::run(p, [&](dc::Comm& comm) {
                   (void)dg::DistGraph::from_replicated(comm, duplicated,
                                                        dg::PartitionKind::kEvenVertices);
                 }),
                 std::invalid_argument);
  }
}

TEST(DistGraph, EvenEdgePartitionBalancesArcCounts) {
  // Star graph: hub 0 with 30 leaves. Edge balance should give the hub's rank
  // few additional vertices.
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= 30; ++v) edges.push_back({0, v, 1.0});
  const auto global = dg::from_edges(31, edges);
  dc::run(3, [&](dc::Comm& comm) {
    const auto dist =
        dg::DistGraph::from_replicated(comm, global, dg::PartitionKind::kEvenEdges);
    const auto arcs = comm.allgather<EdgeId>(dist.local().num_arcs());
    const EdgeId max_arcs = *std::max_element(arcs.begin(), arcs.end());
    // 60 arcs over 3 ranks; hub alone has 30. Max should stay near 30, far
    // below a vertex-balanced split where rank 0 would also get 10 leaves.
    EXPECT_LE(max_arcs, 32);
  });
}

TEST(BinaryIo, RoundTripsHeaderAndRecords) {
  const auto path = std::filesystem::temp_directory_path() / "dlel_roundtrip.bin";
  const auto edges = triangle_plus_pendant();
  dg::write_binary(path.string(), 4, edges);

  const auto header = dg::read_binary_header(path.string());
  EXPECT_EQ(header.num_vertices, 4);
  EXPECT_EQ(header.num_edges, 4);

  const auto all = dg::read_binary_slice(path.string(), 0, header.num_edges);
  ASSERT_EQ(all.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(all[i].src, edges[i].src);
    EXPECT_EQ(all[i].dst, edges[i].dst);
    EXPECT_DOUBLE_EQ(all[i].weight, edges[i].weight);
  }
  std::filesystem::remove(path);
}

TEST(BinaryIo, SliceReadsAreDisjointAndComplete) {
  const auto path = std::filesystem::temp_directory_path() / "dlel_slices.bin";
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 20; ++v) edges.push_back({v, v + 1, 1.0});
  dg::write_binary(path.string(), 20, edges);

  const auto first = dg::read_binary_slice(path.string(), 0, 7);
  const auto second = dg::read_binary_slice(path.string(), 7, 19);
  EXPECT_EQ(first.size(), 7u);
  EXPECT_EQ(second.size(), 12u);
  EXPECT_EQ(first.front().src, 0);
  EXPECT_EQ(second.front().src, 7);
  std::filesystem::remove(path);
}

TEST(BinaryIo, RejectsBadRangeAndBadFile) {
  const auto path = std::filesystem::temp_directory_path() / "dlel_bad.bin";
  dg::write_binary(path.string(), 2, {{0, 1, 1.0}});
  EXPECT_THROW(dg::read_binary_slice(path.string(), 0, 5), std::out_of_range);
  EXPECT_THROW(dg::read_binary_header("/nonexistent/nope.bin"), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(BinaryIo, LoadDistributedMatchesDirectBuild) {
  const auto path = std::filesystem::temp_directory_path() / "dlel_dist.bin";
  const auto edges = triangle_plus_pendant();
  dg::write_binary(path.string(), 4, edges);
  for (int p : {1, 2, 3}) {
    dc::run(p, [&](dc::Comm& comm) {
      const auto dist = dg::load_distributed(comm, path.string());
      EXPECT_EQ(dist.global_n(), 4);
      EXPECT_DOUBLE_EQ(dist.total_weight(), 8.0);
      EXPECT_EQ(dist.global_arcs(), 8);
    });
  }
  std::filesystem::remove(path);
}
