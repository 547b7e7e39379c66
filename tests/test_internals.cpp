// Direct unit tests for the distributed Louvain's internal machinery:
// CommunityLedger (authoritative community info + delta protocol),
// GhostField (mirror-push exchange), DistGraph::validate, the distributed
// binary writer, and the between-phase rebuild against its serial twin --
// exercised in isolation rather than through full Louvain runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <numeric>

#include "comm/world.hpp"
#include "core/community_state.hpp"
#include "core/ghost_exchange.hpp"
#include "core/rebuild.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "gen/ssca2.hpp"
#include "graph/binary_io.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "louvain/coarsen.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace core = dlouvain::core;
namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;
namespace dc = dlouvain::comm;
using dlouvain::CommunityId;
using dlouvain::Edge;
using dlouvain::VertexId;
using dlouvain::Weight;

namespace {

dg::Csr path_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 1.0});
  return dg::from_edges(n, edges);
}

}  // namespace

// ---- GhostField ---------------------------------------------------------------

TEST(GhostField, IdentityInitHoldsGhostIds) {
  const auto g = path_graph(8);
  dc::run(4, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    const auto field = core::GhostField<VertexId>::identity(dist);
    ASSERT_EQ(field.values().size(), dist.ghosts().size());
    for (std::size_t i = 0; i < dist.ghosts().size(); ++i)
      EXPECT_EQ(field.values()[i], dist.ghosts()[i]);
  });
}

TEST(GhostField, FillInitHoldsFillValue) {
  const auto g = path_graph(8);
  dc::run(4, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    const core::GhostField<std::int64_t> field(dist, -7);
    ASSERT_EQ(field.values().size(), dist.ghosts().size());
    for (const std::int64_t value : field.values()) EXPECT_EQ(value, -7);
  });
}

TEST(GhostField, ExchangePropagatesOwnedValues) {
  const auto g = path_graph(10);
  for (const bool sparse : {true, false}) {
    dc::run(3, [&](dc::Comm& comm) {
      const auto dist = dg::DistGraph::from_replicated(comm, g);
      // Owned value = 1000 + global id.
      std::vector<std::int64_t> owned(static_cast<std::size_t>(dist.local_count()));
      for (VertexId lv = 0; lv < dist.local_count(); ++lv)
        owned[static_cast<std::size_t>(lv)] = 1000 + dist.to_global(lv);
      core::GhostField<std::int64_t> field(dist, 0);
      field.exchange(comm, owned, sparse);
      ASSERT_EQ(field.values().size(), dist.ghosts().size());
      for (std::size_t i = 0; i < dist.ghosts().size(); ++i)
        EXPECT_EQ(field.values()[i], 1000 + dist.ghosts()[i]);
    });
  }
}

TEST(GhostField, DeltaExchangeMatchesDenseAndReportsChanges) {
  // Whichever format the per-destination pick ships -- dense while a mirror
  // list is changing, delta once it is not -- every exchange leaves each
  // ghost slot equal to its owner's value, and last_changes() lists exactly
  // the slots it rewrote, each with its old value. The owned pattern is a
  // pure function of (global id, round), so every rank knows what each
  // ghost's owner sent.
  const auto value_of = [](VertexId gv, int round) -> std::int64_t {
    return round >= 2 && gv % 3 == 0 ? -gv - 1 : gv;
  };
  const auto g = path_graph(10);
  dc::RunOptions options;
  options.metrics = std::make_shared<dlouvain::util::MetricsRegistry>(3);
  dc::run(
      3,
      [&](dc::Comm& comm) {
        const auto dist = dg::DistGraph::from_replicated(comm, g);
        const auto& ghosts = dist.ghosts();
        core::GhostField<std::int64_t> field(dist, 0);
        std::vector<std::int64_t> before(ghosts.size(), 0);
        std::vector<std::int64_t> owned(static_cast<std::size_t>(dist.local_count()));
        // Round 0 sets every value, round 1 repeats it, round 2 moves gv % 3 == 0.
        for (int round = 0; round < 3; ++round) {
          for (VertexId lv = 0; lv < dist.local_count(); ++lv)
            owned[static_cast<std::size_t>(lv)] = value_of(dist.to_global(lv), round);
          field.exchange(comm, owned);
          std::vector<std::int64_t> expected_changes;
          for (std::size_t s = 0; s < ghosts.size(); ++s) {
            EXPECT_EQ(field.values()[s], value_of(ghosts[s], round)) << "round " << round;
            if (field.values()[s] != before[s])
              expected_changes.push_back(static_cast<std::int64_t>(s));
          }
          std::vector<std::int64_t> reported;
          for (const auto& change : field.last_changes()) {
            reported.push_back(change.slot);
            EXPECT_EQ(change.old_value, before[static_cast<std::size_t>(change.slot)])
                << "round " << round;
          }
          std::sort(reported.begin(), reported.end());
          EXPECT_EQ(reported, expected_changes) << "round " << round;
          if (round == 1) {
            EXPECT_TRUE(reported.empty());
          }
          before = field.values();
        }
      },
      options);
  const auto totals = options.metrics->total();
  EXPECT_GT(totals[dlouvain::util::Counter::kGhostBytesDense], 0);
  EXPECT_GT(totals[dlouvain::util::Counter::kGhostBytesDelta], 0);
}

// ---- CommunityLedger -------------------------------------------------------------

TEST(CommunityLedger, InitialStateIsSingletons) {
  const auto g = path_graph(6);
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    core::CommunityLedger ledger(dist);
    for (VertexId lv = 0; lv < dist.local_count(); ++lv) {
      const VertexId gv = dist.to_global(lv);
      EXPECT_EQ(ledger.info(gv).size, 1);
      EXPECT_DOUBLE_EQ(ledger.info(gv).degree, dist.weighted_degree(gv));
    }
  });
}

TEST(CommunityLedger, LocalMoveUpdatesBothSides) {
  const auto g = path_graph(6);
  dc::run(1, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    core::CommunityLedger ledger(dist);
    // Move vertex 0 (degree 1) from community 0 to community 1.
    ledger.apply_move(0, 1, dist.weighted_degree(0));
    EXPECT_EQ(ledger.info(0).size, 0);
    EXPECT_DOUBLE_EQ(ledger.info(0).degree, 0.0);
    EXPECT_EQ(ledger.info(1).size, 2);
    EXPECT_DOUBLE_EQ(ledger.info(1).degree,
                     dist.weighted_degree(0) + dist.weighted_degree(1));
  });
}

TEST(CommunityLedger, RemoteMoveFlowsThroughDeltas) {
  // Path 0-1-2-3 over 2 ranks: rank 0 owns {0,1}, rank 1 owns {2,3}
  // (even-vertex partition). Rank 0 moves vertex 1 into community 2 (owned
  // by rank 1); after flush, rank 1's ledger must reflect it.
  const auto g = path_graph(4);
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist =
        dg::DistGraph::from_replicated(comm, g, dg::PartitionKind::kEvenVertices);
    core::CommunityLedger ledger(dist);

    // Both ranks retain their ghost communities and refresh, so rank 0 has
    // community 2 in its ghost cache.
    for (const auto ghost : dist.ghosts()) ledger.retain(ghost);
    ledger.refresh(comm);

    if (comm.rank() == 0) {
      ledger.apply_move(1, 2, dist.weighted_degree(1));
      // The cached ghost copy updates immediately...
      EXPECT_EQ(ledger.info(2).size, 2);
    }
    ledger.flush_deltas(comm);
    if (comm.rank() == 1) {
      // ...and the authoritative copy after the flush.
      EXPECT_EQ(ledger.info(2).size, 2);
      EXPECT_DOUBLE_EQ(ledger.info(2).degree, 2.0 + 2.0);  // k_2 + k_1, both interior
    }
  });
}

TEST(CommunityLedger, SurvivorCountTracksEmptiedCommunities) {
  const auto g = path_graph(4);
  dc::run(1, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    core::CommunityLedger ledger(dist);
    // Survivors as the rebuild counts them: owned records with a member.
    const auto survivors = [&] {
      return std::count_if(ledger.owned().begin(), ledger.owned().end(),
                           [](const core::CommunityInfo& c) { return c.size > 0; });
    };
    EXPECT_EQ(survivors(), 4);
    ledger.apply_move(0, 1, dist.weighted_degree(0));
    ledger.apply_move(3, 2, dist.weighted_degree(3));
    EXPECT_EQ(survivors(), 2);
  });
}

TEST(CommunityLedger, DegreeTermMatchesDefinition) {
  const auto g = path_graph(5);
  dc::run(1, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    core::CommunityLedger ledger(dist);
    // Singletons: sum k^2 = 1 + 4 + 4 + 4 + 1.
    EXPECT_DOUBLE_EQ(ledger.owned_degree_term(), 14.0);
  });
}

TEST(CommunityLedger, MoveToUncachedCommunityThrows) {
  const auto g = path_graph(6);
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist =
        dg::DistGraph::from_replicated(comm, g, dg::PartitionKind::kEvenVertices);
    core::CommunityLedger ledger(dist);
    // No refresh performed: a move touching a remote community must throw
    // (protocol bug detector).
    const VertexId mine = dist.v_begin();
    const VertexId remote = comm.rank() == 0 ? 5 : 0;
    EXPECT_THROW(ledger.apply_move(mine, remote, 1.0), std::out_of_range);
  });
}

// ---- DistGraph::validate -----------------------------------------------------------

TEST(DistGraphValidate, PassesOnWellFormedGraphs) {
  const auto graph = gen::clique_chain(5, 4);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  for (int p : {1, 2, 3, 4}) {
    dc::run(p, [&](dc::Comm& comm) {
      const auto dist = dg::DistGraph::from_replicated(comm, g);
      EXPECT_NO_THROW(dist.validate(comm));
    });
  }
}

TEST(DistGraphValidate, CatchesAsymmetricArcs) {
  dc::run(2, [](dc::Comm& comm) {
    // Hand-build an ASYMMETRIC distributed graph: only rank 0 contributes
    // the arc 0->3, no reverse. build() with symmetrize=false keeps it.
    const auto part = dg::partition_even_vertices(4, 2);
    std::vector<Edge> arcs;
    if (comm.rank() == 0) arcs.push_back({0, 3, 1.0});
    const auto dist = dg::DistGraph::build(comm, part, std::move(arcs), false);
    EXPECT_THROW(dist.validate(comm), std::logic_error);
  });
}

// ---- Distributed binary writer ---------------------------------------------------

TEST(WriteDistributed, RoundTripsThroughTheFileFormat) {
  const auto graph = gen::clique_chain(6, 5);
  const auto g = dg::from_edges(graph.num_vertices, graph.edges);
  const auto path = std::filesystem::temp_directory_path() / "dlel_distwrite.bin";

  for (int p : {1, 2, 3}) {
    dc::run(p, [&](dc::Comm& comm) {
      const auto dist = dg::DistGraph::from_replicated(comm, g);
      dg::write_distributed(comm, dist, path.string());
      comm.barrier();
      // Reload and compare global invariants.
      const auto reloaded = dg::load_distributed(comm, path.string());
      EXPECT_EQ(reloaded.global_n(), g.num_vertices());
      EXPECT_EQ(reloaded.global_arcs(), g.num_arcs());
      EXPECT_DOUBLE_EQ(reloaded.total_weight(), g.total_arc_weight());
      EXPECT_NO_THROW(reloaded.validate(comm));
    });
    // Header says each undirected edge exactly once.
    const auto header = dg::read_binary_header(path.string());
    EXPECT_EQ(header.num_edges, g.num_arcs() / 2) << "p=" << p;
    std::filesystem::remove(path);
  }
}

TEST(WriteDistributed, PreservesWeightsAndSelfLoops) {
  // Graph with a self loop and non-unit weights.
  const auto g = dg::from_edges(3, {{0, 0, 2.5}, {0, 1, 1.5}, {1, 2, 3.0}});
  const auto path = std::filesystem::temp_directory_path() / "dlel_weights.bin";
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, g);
    dg::write_distributed(comm, dist, path.string());
    const auto reloaded = dg::load_distributed(comm, path.string());
    EXPECT_DOUBLE_EQ(reloaded.total_weight(), g.total_arc_weight());
  });
  std::filesystem::remove(path);
}

// ---- Rebuild (paper Fig. 1 graph reconstruction) -----------------------------

namespace {

dg::Csr star_graph(VertexId leaves) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= leaves; ++v) edges.push_back({0, v, 1.0});
  return dg::from_edges(leaves + 1, edges);
}

// Non-unit weights whose sums stay exact in binary floating point (0.5, 2,
// 3 and their halves), plus stored self loops, so the distributed fold order
// cannot move a bit relative to the serial coarsening.
dg::Csr exact_weight_graph() {
  const VertexId n = 120;
  const Weight weights[] = {0.5, 2.0, 3.0};
  std::vector<Edge> edges;
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId step : {1, 7, 31}) {
      edges.push_back({v, (v + step) % n, weights[(v + step) % 3]});
    }
    if (v % 5 == 0) edges.push_back({v, v, weights[v % 3]});
  }
  return dg::from_edges(n, edges);
}

// A seeded assignment with few surviving communities: each vertex joins one
// of ~n/6 random target ids (owned anywhere) with probability 0.8, else keeps
// its singleton. Vertices that left their own id empty that community.
std::vector<CommunityId> random_assignment(VertexId n, std::uint64_t seed) {
  const VertexId targets = std::max<VertexId>(1, n / 6);
  std::vector<CommunityId> community(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    const auto uv = static_cast<std::uint64_t>(v);
    if (dlouvain::util::hash_rand_unit(seed, uv, 0, 0) < 0.8) {
      const auto pick = static_cast<VertexId>(
          dlouvain::util::hash_rand_unit(seed, uv, 1, 0) * static_cast<double>(targets));
      community[static_cast<std::size_t>(v)] = static_cast<VertexId>(
          dlouvain::util::hash_rand_unit(seed, static_cast<std::uint64_t>(pick), 2, 0) *
          static_cast<double>(n));
    } else {
      community[static_cast<std::size_t>(v)] = v;
    }
  }
  return community;
}

// Everything core::rebuild reads, brought to the state a finished phase
// leaves it in: owned finals, ghosts exchanged, ledger sizes flushed to the
// owners through the ordinary move protocol.
struct PhaseEnd {
  std::vector<CommunityId> owned;
  core::GhostCommunities ghosts;
  core::CommunityLedger ledger;
};

PhaseEnd finish_phase(dc::Comm& comm, const dg::DistGraph& dist,
                      const std::vector<CommunityId>& assignment) {
  PhaseEnd end{{}, core::GhostCommunities(dist), core::CommunityLedger(dist)};
  for (VertexId lv = 0; lv < dist.local_count(); ++lv)
    end.owned.push_back(assignment[static_cast<std::size_t>(dist.to_global(lv))]);
  for (const CommunityId c : end.owned) {
    if (!dist.owns(c)) end.ledger.retain(c);
  }
  end.ledger.refresh(comm);
  for (VertexId lv = 0; lv < dist.local_count(); ++lv) {
    const VertexId gv = dist.to_global(lv);
    const CommunityId c = end.owned[static_cast<std::size_t>(lv)];
    if (c != gv) end.ledger.apply_move(gv, c, dist.weighted_degree(gv));
  }
  end.ledger.flush_deltas(comm);
  end.ghosts.exchange(comm, end.owned);
  return end;
}

}  // namespace

TEST(Rebuild, MatchesSerialCoarsen) {
  struct Case {
    const char* name;
    dg::Csr graph;
  };
  std::vector<Case> cases;
  {
    const auto ring = gen::ring(48);
    cases.push_back({"ring", dg::from_edges(ring.num_vertices, ring.edges)});
  }
  cases.push_back({"star", star_graph(40)});
  {
    gen::RmatParams params;
    params.scale = 10;
    params.edges_per_vertex = 8;
    params.seed = 42;
    const auto rmat = gen::rmat(params);
    cases.push_back({"rmat10", dg::from_edges(rmat.num_vertices, rmat.edges)});
  }
  {
    gen::Ssca2Params params;
    params.num_vertices = 2000;
    params.max_clique_size = 20;
    const auto ssca = gen::ssca2(params);
    cases.push_back({"ssca2k", dg::from_edges(ssca.num_vertices, ssca.edges)});
  }
  cases.push_back({"exact-weights", exact_weight_graph()});

  for (const auto& [name, g] : cases) {
    Weight two_m = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) two_m += g.weighted_degree(v);
    for (const std::uint64_t seed : {1, 2}) {
      const auto assignment = random_assignment(g.num_vertices(), seed);
      std::vector<char> used(static_cast<std::size_t>(g.num_vertices()), 0);
      for (const CommunityId c : assignment) used[static_cast<std::size_t>(c)] = 1;
      ASSERT_NE(std::find(used.begin(), used.end(), 0), used.end())
          << name << ": no emptied community";
      const auto serial = dlouvain::louvain::coarsen(g, assignment);
      std::vector<Edge> expected;
      for (VertexId v = 0; v < serial.graph.num_vertices(); ++v)
        for (const auto& e : serial.graph.neighbors(v))
          expected.push_back({v, e.dst, e.weight});

      for (const int p : {1, 2, 3, 4}) {
        for (const int threads : {1, 4}) {
          const auto label = std::string(name) + " seed " + std::to_string(seed) +
                             " p=" + std::to_string(p) + " t=" + std::to_string(threads);
          dc::run(p, [&](dc::Comm& comm) {
            const auto dist = dg::DistGraph::from_replicated(comm, g);
            const auto end = finish_phase(comm, dist, assignment);
            dlouvain::util::ThreadPool pool(threads);
            const auto out =
                core::rebuild(comm, dist, end.owned, end.ghosts, end.ledger, &pool);

            const auto meta = comm.allgatherv<VertexId>(out.new_vertex_of_current);
            std::vector<Edge> local_arcs;
            for (VertexId lv = 0; lv < out.graph.local_count(); ++lv)
              for (const auto& e : out.graph.local().neighbors(lv))
                local_arcs.push_back({out.graph.to_global(lv), e.dst, e.weight});
            const auto arcs = comm.allgatherv<Edge>(local_arcs);
            if (comm.rank() != 0) return;

            EXPECT_EQ(out.new_global_n, serial.num_meta_vertices) << label;
            EXPECT_EQ(meta, serial.old_to_new) << label;
            ASSERT_EQ(arcs.size(), expected.size()) << label;
            for (std::size_t i = 0; i < arcs.size(); ++i) {
              EXPECT_EQ(arcs[i].src, expected[i].src) << label << " arc " << i;
              EXPECT_EQ(arcs[i].dst, expected[i].dst) << label << " arc " << i;
              EXPECT_EQ(std::bit_cast<std::uint64_t>(arcs[i].weight),
                        std::bit_cast<std::uint64_t>(expected[i].weight))
                  << label << " arc " << i;
            }
            EXPECT_EQ(out.graph.total_weight(), two_m) << label;
          });
        }
      }
    }
  }
}

TEST(Rebuild, ShipsOneArcPerPairPerRank) {
  // Every leaf joins the hub's community, so the coarse graph is one meta
  // vertex with a self loop. A rank that coalesces its arcs before shipping
  // sends one arc, however many leaves it owns; the resolve round asks about
  // the hub's community once per rank.
  const auto rebuild_bytes = [](VertexId leaves) {
    const auto g = star_graph(leaves);
    const std::vector<CommunityId> assignment(static_cast<std::size_t>(leaves + 1), 0);
    const int p = 4;
    std::vector<std::int64_t> bytes(p, 0);
    dc::run(p, [&](dc::Comm& comm) {
      const auto dist =
          dg::DistGraph::from_replicated(comm, g, dg::PartitionKind::kEvenVertices);
      const auto end = finish_phase(comm, dist, assignment);
      const auto before = comm.counters()[dlouvain::util::Counter::kBytes];
      const auto out = core::rebuild(comm, dist, end.owned, end.ghosts, end.ledger);
      bytes[static_cast<std::size_t>(comm.rank())] =
          comm.counters()[dlouvain::util::Counter::kBytes] - before;
      EXPECT_EQ(out.new_global_n, 1);
      EXPECT_EQ(out.graph.global_arcs(), 1);
    });
    return std::accumulate(bytes.begin(), bytes.end(), std::int64_t{0});
  };
  const auto small = rebuild_bytes(64);
  EXPECT_GT(small, 0);
  EXPECT_EQ(rebuild_bytes(256), small);
  EXPECT_EQ(rebuild_bytes(1024), small);
}
