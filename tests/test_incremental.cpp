// Streaming-update tests (ISSUE 6): the Session API, warm-start equivalence
// against from-scratch runs on the same final graph, streaming determinism
// across thread counts and under message-level fault injection, the
// DistGraph edge splice, Plan validation, and the v2 manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/dist_louvain.hpp"
#include "dlouvain.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "util/parallel.hpp"

namespace core = dlouvain::core;
namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;
namespace dc = dlouvain::comm;
using dlouvain::CommunityId;
using dlouvain::Edge;
using dlouvain::EdgeBatch;
using dlouvain::Plan;
using dlouvain::PlanError;
using dlouvain::Result;
using dlouvain::VertexId;
using dlouvain::Weight;

namespace {

/// The current undirected edge set of a test graph, kept alongside the
/// session so batches can name valid removals and the final graph can be
/// rebuilt from scratch for comparison.
struct EdgeLedger {
  VertexId n{0};
  std::vector<Edge> edges;  // each undirected edge once (src <= dst)

  static EdgeLedger from(const gen::GeneratedGraph& g) {
    EdgeLedger ledger;
    ledger.n = g.num_vertices;
    // Normalize through the CSR so ledger weights match coalesced reality.
    const auto csr = dg::from_edges(g.num_vertices, g.edges);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      for (const auto& e : csr.neighbors(v)) {
        if (e.dst >= v) ledger.edges.push_back(Edge{v, e.dst, e.weight});
      }
    }
    return ledger;
  }

  [[nodiscard]] dg::Csr csr() const { return dg::from_edges(n, edges); }

  /// Deterministic mixed batch: `removals` existing edges out, `additions`
  /// fresh (or reinforcing) edges in. Mirrors the batch onto the ledger.
  EdgeBatch next_batch(std::mt19937_64& rng, int additions, int removals) {
    EdgeBatch batch;
    for (int i = 0; i < removals && !edges.empty(); ++i) {
      const auto pick = static_cast<std::size_t>(rng() % edges.size());
      batch.remove(edges[pick].src, edges[pick].dst);
      edges[pick] = edges.back();
      edges.pop_back();
    }
    for (int i = 0; i < additions; ++i) {
      const auto u = static_cast<VertexId>(rng() % static_cast<std::uint64_t>(n));
      auto v = static_cast<VertexId>(rng() % static_cast<std::uint64_t>(n));
      if (v == u) v = (v + 1) % n;
      batch.add(u, v, 1.0);
      // Mirror coalescing: adding an existing edge merges weight.
      bool merged = false;
      for (auto& e : edges) {
        if (std::minmax(e.src, e.dst) == std::minmax(u, v)) {
          e.weight += 1.0;
          merged = true;
          break;
        }
      }
      if (!merged) edges.push_back(Edge{std::min(u, v), std::max(u, v), 1.0});
    }
    return batch;
  }
};

void expect_bitwise_equal(const Result& a, const Result& b) {
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.num_communities, b.num_communities);
  std::uint64_t qa = 0;
  std::uint64_t qb = 0;
  std::memcpy(&qa, &a.modularity, sizeof qa);
  std::memcpy(&qb, &b.modularity, sizeof qb);
  EXPECT_EQ(qa, qb) << "modularity bits differ: " << a.modularity << " vs "
                    << b.modularity;
}

}  // namespace

// ---- Plan::run == open().result() (the thin-wrapper contract) ---------------

TEST(Session, RunIsOpenPlusResult) {
  const auto g = gen::planted_partition(240, 6, 0.30, 0.01, 11);
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  const auto plan = Plan::distributed(4).threads(2);
  const auto via_run = plan.run(csr);
  const auto session = plan.open(csr);
  expect_bitwise_equal(via_run, session.result());
  EXPECT_EQ(session.updates_applied(), 0);
}

// ---- Satellite 2: dist_config() round-trips into an identical run -----------

TEST(Session, DistConfigRoundTripsBitwise) {
  const auto g = gen::planted_partition(200, 5, 0.30, 0.01, 3);
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  const auto plan =
      Plan::distributed(4).threads(2).variant(dlouvain::Variant::kEtc).alpha(0.25);
  const auto via_plan = plan.run(csr);
  const auto raw = core::dist_louvain_inprocess(plan.num_ranks(), csr,
                                                plan.dist_config());
  EXPECT_EQ(via_plan.community, raw.community);
  std::uint64_t qa = 0;
  std::uint64_t qb = 0;
  std::memcpy(&qa, &via_plan.modularity, sizeof qa);
  std::memcpy(&qb, &raw.modularity, sizeof qb);
  EXPECT_EQ(qa, qb);
}

// ---- Warm-start equivalence per graph family --------------------------------

namespace {

void check_warm_equivalence(const gen::GeneratedGraph& g, int ranks,
                            std::uint64_t seed) {
  auto ledger = EdgeLedger::from(g);
  const auto plan = Plan::distributed(ranks).threads(2);
  auto session = plan.open(ledger.csr());

  std::mt19937_64 rng(seed);
  for (int batch_no = 0; batch_no < 3; ++batch_no) {
    const auto batch = ledger.next_batch(rng, /*additions=*/6, /*removals=*/4);
    const auto stats = session.update(batch);
    EXPECT_EQ(stats.edges_added + stats.edges_removed,
              static_cast<std::int64_t>(batch.size()));
    if (!stats.fell_back_to_full) {
      EXPECT_GT(stats.vertices_reactivated, 0);
    }
  }
  ASSERT_EQ(session.updates_applied(), 3);

  // The incrementally-maintained clustering must match a from-scratch run on
  // the same final graph to within a small modularity tolerance.
  const auto scratch = plan.run(ledger.csr());
  EXPECT_NEAR(session.result().modularity, scratch.modularity, 0.03)
      << "warm-start drifted from from-scratch on " << g.name;
  EXPECT_EQ(session.result().community.size(), scratch.community.size());
}

}  // namespace

TEST(WarmEquivalence, PlantedPartition) {
  check_warm_equivalence(gen::planted_partition(240, 6, 0.30, 0.01, 5), 4, 101);
}

TEST(WarmEquivalence, CliqueChain) {
  check_warm_equivalence(gen::clique_chain(16, 8), 4, 202);
}

TEST(WarmEquivalence, WattsStrogatz) {
  check_warm_equivalence(gen::watts_strogatz(256, 8, 0.1, 17), 4, 303);
}

TEST(WarmEquivalence, Rmat) {
  gen::RmatParams params;
  params.scale = 8;
  params.edges_per_vertex = 8;
  params.seed = 23;
  check_warm_equivalence(gen::rmat(params), 4, 404);
}

// ---- Streaming determinism: thread count and fault injection ----------------

namespace {

Result stream_result(const Plan& plan, const dg::Csr& base,
                     const std::vector<EdgeBatch>& batches) {
  auto session = plan.open(base);
  for (const auto& b : batches) session.update(b);
  return session.result();
}

}  // namespace

TEST(StreamingDeterminism, ThreadCountInvariant) {
  auto ledger = EdgeLedger::from(gen::planted_partition(180, 6, 0.30, 0.02, 7));
  const auto base = ledger.csr();
  std::mt19937_64 rng(55);
  std::vector<EdgeBatch> batches;
  for (int i = 0; i < 2; ++i) batches.push_back(ledger.next_batch(rng, 5, 3));

  const auto r1 = stream_result(Plan::distributed(4).threads(1), base, batches);
  const auto r4 = stream_result(Plan::distributed(4).threads(4), base, batches);
  const auto r16 = stream_result(Plan::distributed(4).threads(16), base, batches);
  expect_bitwise_equal(r1, r4);
  expect_bitwise_equal(r1, r16);
}

TEST(StreamingDeterminism, DelayAndDuplicationInvariant) {
  auto ledger = EdgeLedger::from(gen::planted_partition(160, 4, 0.30, 0.02, 9));
  const auto base = ledger.csr();
  std::mt19937_64 rng(66);
  std::vector<EdgeBatch> batches;
  for (int i = 0; i < 2; ++i) batches.push_back(ledger.next_batch(rng, 5, 3));

  const auto clean = stream_result(Plan::distributed(4).threads(2), base, batches);
  const auto faulty = stream_result(
      Plan::distributed(4).threads(2).inject_faults(
          dc::FaultPlan().with_seed(3).delay(0.2, 1.0).duplicate(0.2)),
      base, batches);
  expect_bitwise_equal(clean, faulty);
  EXPECT_GT(faulty.recovery.injected_delays + faulty.recovery.injected_duplicates, 0);
}

// ---- DistGraph::with_edge_changes vs rebuild-from-scratch -------------------

namespace {

/// Every field of `spliced` equals the full derivation in `rebuilt`.
void expect_same_slice(const dg::DistGraph& spliced, const dg::DistGraph& rebuilt,
                       int step) {
  ASSERT_EQ(spliced.local_count(), rebuilt.local_count()) << "batch " << step;
  EXPECT_EQ(spliced.local().offsets(), rebuilt.local().offsets()) << "batch " << step;
  ASSERT_EQ(spliced.local().edges().size(), rebuilt.local().edges().size());
  for (std::size_t i = 0; i < spliced.local().edges().size(); ++i) {
    EXPECT_EQ(spliced.local().edges()[i].dst, rebuilt.local().edges()[i].dst);
    EXPECT_DOUBLE_EQ(spliced.local().edges()[i].weight, rebuilt.local().edges()[i].weight);
  }
  EXPECT_DOUBLE_EQ(spliced.total_weight(), rebuilt.total_weight()) << "batch " << step;
  EXPECT_EQ(spliced.global_arcs(), rebuilt.global_arcs()) << "batch " << step;
  for (VertexId lv = 0; lv < spliced.local_count(); ++lv) {
    const VertexId gv = spliced.to_global(lv);
    EXPECT_DOUBLE_EQ(spliced.weighted_degree(gv), rebuilt.weighted_degree(gv))
        << "batch " << step << " row " << gv;
  }
  EXPECT_EQ(spliced.ghosts(), rebuilt.ghosts()) << "batch " << step;
  for (std::size_t i = 0; i < spliced.ghosts().size(); ++i)
    EXPECT_EQ(spliced.ghost_slot(spliced.ghosts()[i]), static_cast<std::int64_t>(i));
  EXPECT_EQ(spliced.dst_slots(), rebuilt.dst_slots()) << "batch " << step;
  EXPECT_EQ(spliced.boundary_flags(), rebuilt.boundary_flags()) << "batch " << step;
  EXPECT_EQ(spliced.boundary_count(), rebuilt.boundary_count()) << "batch " << step;
  EXPECT_EQ(spliced.ghosts_by_owner(), rebuilt.ghosts_by_owner()) << "batch " << step;
  EXPECT_EQ(spliced.mirrors(), rebuilt.mirrors()) << "batch " << step;
  EXPECT_EQ(spliced.neighbor_ranks(), rebuilt.neighbor_ranks()) << "batch " << step;
}

/// Splices `batches` one after another into one slice of `before` and,
/// after batch i, compares it field by field with DistGraph::build of the
/// rows of `after[i]` under the SAME partition (the splice keeps the
/// original vertex distribution; from_replicated would re-cut on the new
/// edge counts). `pin(i, slice)` adds checks of its own after batch i.
void expect_splices_match_builds(
    const dg::Csr& before, const std::vector<EdgeBatch>& batches,
    const std::vector<dg::Csr>& after, int ranks, dg::PartitionKind kind, int threads,
    const std::function<void(std::size_t, const dg::DistGraph&)>& pin = {}) {
  dc::run(ranks, [&](dc::Comm& comm) {
    dlouvain::util::ThreadPool pool(threads);
    auto slice = dg::DistGraph::from_replicated(comm, before, kind);
    for (std::size_t step = 0; step < batches.size(); ++step) {
      slice = slice.with_edge_changes(comm, batches[step].changes(), &pool);
      std::vector<Edge> owned_arcs;
      for (VertexId lv = 0; lv < slice.local_count(); ++lv) {
        const VertexId gv = slice.to_global(lv);
        for (const auto& e : after[step].neighbors(gv))
          owned_arcs.push_back(Edge{gv, e.dst, e.weight});
      }
      const auto rebuilt = dg::DistGraph::build(comm, slice.partition(),
                                                std::move(owned_arcs),
                                                /*symmetrize=*/false);
      expect_same_slice(slice, rebuilt, static_cast<int>(step));
      if (pin) pin(step, slice);
    }
  });
}

}  // namespace

TEST(ApplyEdgeChanges, MatchesFromReplicatedRebuild) {
  // Mixed random batches on a planted partition, edge-balanced cut.
  {
    auto ledger = EdgeLedger::from(gen::planted_partition(120, 4, 0.30, 0.02, 13));
    const auto before = ledger.csr();
    std::mt19937_64 rng(77);
    std::vector<EdgeBatch> batches;
    std::vector<dg::Csr> after;
    for (int i = 0; i < 4; ++i) {
      batches.push_back(ledger.next_batch(rng, 8, 5));
      after.push_back(ledger.csr());
    }
    for (const int threads : {1, 3})
      expect_splices_match_builds(before, batches, after, 4, dg::PartitionKind::kEvenEdges,
                                  threads);
  }
  // Scripted ghost gains and losses on a chain of four 8-cliques, one clique
  // per rank: rank r owns [8r, 8r + 8) and the bridges {7,8}, {15,16},
  // {23,24} are its only remote arcs.
  {
    auto ledger = EdgeLedger::from(gen::clique_chain(4, 8));
    const auto before = ledger.csr();
    std::vector<EdgeBatch> batches;
    std::vector<dg::Csr> after;
    const auto apply = [&](EdgeBatch batch) {
      for (const auto& c : batch.changes()) {
        const auto key = std::minmax(c.u, c.v);
        const auto it = std::find_if(ledger.edges.begin(), ledger.edges.end(), [&](const Edge& e) {
          return std::minmax(e.src, e.dst) == key;
        });
        if (c.remove) {
          ASSERT_NE(it, ledger.edges.end()) << "no edge {" << c.u << "," << c.v << "}";
          ledger.edges.erase(it);
        } else if (it != ledger.edges.end())
          it->weight += c.weight;
        else
          ledger.edges.push_back(Edge{key.first, key.second, c.weight});
      }
      batches.push_back(std::move(batch));
      after.push_back(ledger.csr());
    };
    apply(EdgeBatch().add(7, 9, 1.0).add(0, 1, 2.0));  // creates ghost 9 on rank 0
    apply(EdgeBatch().remove(7, 9));  // rank 0 drops its last arc to ghost 9, keeps 8
    apply(EdgeBatch().remove(15, 16).add(3, 5, 1.0));  // ranks 1 and 2 stop neighbouring
    apply(EdgeBatch().add(15, 16, 1.0));                // ...and neighbour again
    apply(EdgeBatch().add(0, 31, 1.0).add(6, 30, 2.0).remove(23, 24));  // ranks 0-3 meet, 2-3 part
    apply(EdgeBatch().remove(0, 31).add(0, 30, 1.0));  // rank 0 drops 31; 3 keeps 0 via 30
    // The fixture reaches each case it names.
    const auto pin = [](std::size_t step, const dg::DistGraph& slice) {
      const std::vector<std::vector<VertexId>> unbatched{
          {8}, {7, 16}, {15, 24}, {23}};  // each rank's ghosts before any batch
      const auto r = static_cast<std::size_t>(slice.rank());
      std::vector<VertexId> want = unbatched[r];
      if (step == 0 && r == 0) want = {8, 9};
      if (step == 2 && r == 1) want = {7};
      if (step == 2 && r == 2) want = {24};
      if (step >= 4 && r == 0) want = {8, 30, 31};
      if (step >= 4 && r == 2) want = {15};
      if (step >= 4 && r == 3) want = {0, 6};
      if (step == 5 && r == 0) want = {8, 30};
      EXPECT_EQ(slice.ghosts(), want) << "batch " << step << " rank " << r;
      if (step == 2 && (r == 1 || r == 2)) {
        EXPECT_EQ(slice.neighbor_ranks().size(), 1U) << "rank " << r;
      }
    };
    expect_splices_match_builds(before, batches, after, 4, dg::PartitionKind::kEvenVertices, 1,
                                pin);
  }
}

TEST(ApplyEdgeChanges, RemovalOfAbsentEdgeThrowsEverywhere) {
  const auto g = gen::ring(64);
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  constexpr int kRanks = 2;
  dc::run(kRanks, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, csr);
    const std::vector<dg::EdgeChange> changes{
        dg::EdgeChange{0, 2, 0.0, true}};  // ring has no chord 0-2
    EXPECT_THROW((void)dist.with_edge_changes(comm, changes), std::invalid_argument);
  });
}

// ---- Fallback to full recompute ---------------------------------------------

TEST(Session, FallbackFiresOnDestructiveBatchAndMatchesScratch) {
  auto ledger = EdgeLedger::from(gen::planted_partition(160, 4, 0.40, 0.01, 21));
  const auto plan = Plan::distributed(4).threads(2).update_fallback(0.0);
  auto session = plan.open(ledger.csr());

  // Shred structure: remove many edges (mostly intra-community at this
  // density), so even the best re-clustering lands below the old modularity
  // and the zero-drift threshold forces the full recompute path.
  std::mt19937_64 rng(88);
  const auto batch = ledger.next_batch(rng, /*additions=*/0, /*removals=*/40);
  const auto stats = session.update(batch);
  EXPECT_TRUE(stats.fell_back_to_full);
  EXPECT_EQ(session.result().updates.fallback_to_full, 1);

  // The fallback recomputes from scratch on the updated graph, so it must
  // be bitwise-identical to a fresh run on the same final graph.
  const auto scratch = plan.run(ledger.csr());
  expect_bitwise_equal(session.result(), scratch);
}

TEST(Session, GenerousFallbackThresholdNeverFires) {
  auto ledger = EdgeLedger::from(gen::planted_partition(160, 4, 0.30, 0.02, 31));
  auto session = Plan::distributed(4).threads(2).update_fallback(1.0).open(ledger.csr());
  std::mt19937_64 rng(99);
  session.update(ledger.next_batch(rng, 4, 2));
  EXPECT_EQ(session.result().updates.fallback_to_full, 0);
}

// ---- Batch edge cases -------------------------------------------------------

TEST(Session, EmptyBatchIsNoOp) {
  const auto g = gen::clique_chain(8, 6);
  auto session = Plan::distributed(2).open(dg::from_edges(g.num_vertices, g.edges));
  const auto before = session.result().community;
  const auto stats = session.update(EdgeBatch());
  EXPECT_EQ(stats.edges_added, 0);
  EXPECT_EQ(stats.edges_removed, 0);
  EXPECT_EQ(session.updates_applied(), 0);
  EXPECT_EQ(session.result().community, before);
}

TEST(Session, MalformedBatchThrowsWithoutMutating) {
  const auto g = gen::clique_chain(8, 6);
  auto session = Plan::distributed(2).open(dg::from_edges(g.num_vertices, g.edges));
  const auto before = session.result().community;

  EXPECT_THROW(session.update(EdgeBatch().add(0, 1'000'000)), std::invalid_argument);
  EXPECT_THROW(session.update(EdgeBatch().add(3, 3)), std::invalid_argument);
  EXPECT_THROW(session.update(EdgeBatch().add(0, 1, -2.0)), std::invalid_argument);
  EXPECT_THROW(session.update(EdgeBatch().remove(0, 47)), std::invalid_argument);

  EXPECT_EQ(session.updates_applied(), 0);
  EXPECT_EQ(session.result().community, before);
}

// ---- Satellite 1: Plan::validate() ------------------------------------------

TEST(PlanValidate, RejectsOutOfRangeSettings) {
  EXPECT_THROW(Plan::distributed(0).validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).threshold(-1.0).validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).resolution(0.0).validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).max_phases(0).validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).max_iterations(0).validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).update_fallback(-0.1).validate(), PlanError);
  EXPECT_THROW(
      Plan::distributed(2).variant(dlouvain::Variant::kEt).alpha(0.0).validate(),
      PlanError);
  EXPECT_THROW(
      Plan::distributed(2).variant(dlouvain::Variant::kEtc).alpha(1.5).validate(),
      PlanError);
  EXPECT_THROW(Plan::distributed(2).checkpointing("/tmp/x", 0).validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).retransmit(-1).validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).retransmit(3, 0.0).validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).retransmit(3, -2.0).validate(), PlanError);
  EXPECT_NO_THROW(Plan::distributed(2).retransmit(0).validate());
  EXPECT_NO_THROW(Plan::distributed(2).retransmit(5, 0.5).shrink_on_rank_loss().validate());
  EXPECT_NO_THROW(Plan::distributed(2).variant(dlouvain::Variant::kBaseline)
                      .alpha(7.0)  // unused by the baseline variant
                      .validate());
}

TEST(PlanValidate, ResumeNoLongerClobbersCheckpointDir) {
  // Pre-PR, resume() silently overwrote checkpointing()'s directory (and
  // vice versa, order-dependently). Now: same dir fine, different dirs a
  // validate() error, resume alone keeps checkpointing into the resume dir.
  EXPECT_THROW(Plan::distributed(2).resume("").validate(), PlanError);
  EXPECT_THROW(Plan::distributed(2).checkpointing("/tmp/a").resume("/tmp/b").validate(),
               PlanError);
  EXPECT_THROW(Plan::distributed(2).resume("/tmp/b").checkpointing("/tmp/a").validate(),
               PlanError);

  const auto same = Plan::distributed(2).checkpointing("/tmp/a").resume("/tmp/a");
  EXPECT_NO_THROW(same.validate());
  EXPECT_EQ(same.dist_config().checkpoint.dir, "/tmp/a");
  EXPECT_TRUE(same.dist_config().checkpoint.resume);

  const auto resume_only = Plan::distributed(2).resume("/tmp/c");
  EXPECT_NO_THROW(resume_only.validate());
  EXPECT_EQ(resume_only.dist_config().checkpoint.dir, "/tmp/c");
  EXPECT_TRUE(resume_only.dist_config().checkpoint.resume);

  const auto checkpoint_only = Plan::distributed(2).checkpointing("/tmp/d", 2);
  EXPECT_EQ(checkpoint_only.dist_config().checkpoint.dir, "/tmp/d");
  EXPECT_FALSE(checkpoint_only.dist_config().checkpoint.resume);
}

// ---- Satellite 3: manifest v2 -----------------------------------------------

TEST(ManifestV2, UpdatesSectionAlwaysPresent) {
  const auto g = gen::clique_chain(8, 6);
  const auto csr = dg::from_edges(g.num_vertices, g.edges);

  const auto one_shot = Plan::distributed(2).run(csr);
  const auto json = one_shot.to_json();
  EXPECT_NE(json.find("\"schema\":\"dlouvain-run-manifest/8\""), std::string::npos);
  EXPECT_NE(json.find("\"updates\":{\"batches_applied\":0"), std::string::npos);
}

TEST(ManifestV2, UpdatesSectionTracksSession) {
  auto ledger = EdgeLedger::from(gen::planted_partition(120, 4, 0.30, 0.02, 51));
  auto session = Plan::distributed(2).threads(2).open(ledger.csr());
  std::mt19937_64 rng(121);
  session.update(ledger.next_batch(rng, 3, 2));
  session.update(ledger.next_batch(rng, 2, 1));

  const auto& u = session.result().updates;
  EXPECT_EQ(u.batches_applied, 2);
  EXPECT_EQ(u.edges_added, 5);
  EXPECT_EQ(u.edges_removed, 3);
  const auto json = session.result().to_json();
  EXPECT_NE(json.find("\"updates\":{\"batches_applied\":2,\"edges_added\":5,"
                      "\"edges_removed\":3"),
            std::string::npos);
}

// ---- ISSUE 9 satellite 1: Session safe against reuse-after-failure ----------

namespace {

/// Stage a converged checkpoint in `dir` so a follow-up session can
/// `.resume(dir)` straight past phase 0 -- which lets a (phase 0, iter 0)
/// fault trigger target the UPDATE's warm re-convergence while the initial
/// (resumed) run sails past untouched.
dg::Csr stage_resumable_checkpoint(const std::string& dir) {
  std::filesystem::remove_all(dir);
  const auto g = gen::planted_partition(240, 6, 0.30, 0.01, 11);
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  const auto staged = Plan::distributed(3).checkpointing(dir).run(csr);
  // The trick needs a phase >= 1 checkpoint; this graph converges in
  // several phases.
  EXPECT_GE(staged.phases, 2);
  const auto latest = core::checkpoint_latest(dir);
  EXPECT_GE(latest ? latest->next_phase : 0, 1);
  return csr;
}

}  // namespace

TEST(SessionLifecycle, TransientExhaustionDoesNotPoisonNextUpdateRecovers) {
  const std::string dir = "ckpt_transient_reuse";
  const auto csr = stage_resumable_checkpoint(dir);

  // crash() is one-shot: the first update's attempt 0 dies, and with
  // max_restarts(0) the CommFailure propagates to the caller.
  auto session = Plan::distributed(3)
                     .resume(dir)
                     .inject_faults(dc::FaultPlan().crash(1, /*phase=*/0, /*iteration=*/0))
                     .max_restarts(0)
                     .open(csr);
  ASSERT_GE(session.result().recovery.resumed_from_phase, 1);

  const auto batch = EdgeBatch().add(0, 120, 1.0).add(5, 200, 1.0);
  EXPECT_THROW(session.update(batch), dc::RankCrashed);

  // Pre-PR, the session was left in a futile-retry state. Now: a transient
  // exhaustion never poisons -- updates mutate copies and commit on success,
  // so the failed batch left NOTHING behind...
  EXPECT_TRUE(session.poisoned().empty());
  EXPECT_EQ(session.result().updates.batches_applied, 0);
  EXPECT_EQ(session.result().recovery.attempts, 2);  // initial + failed update attempt
  // The failed attempt's traffic is charged as waste: it had already spliced
  // the batch and run the warm adoption's collectives before the fault.
  EXPECT_GT(session.result().recovery.wasted_messages, 0);
  EXPECT_GT(session.result().recovery.wasted_bytes, 0);

  // ...and the SAME batch succeeds on retry (the one-shot trigger already
  // fired), with the session's state exactly pre-batch.
  const auto stats = session.update(batch);
  EXPECT_EQ(stats.edges_added, 2);
  EXPECT_EQ(session.result().updates.batches_applied, 1);
  std::filesystem::remove_all(dir);
}

TEST(SessionLifecycle, RankDeathDuringUpdatePoisonsSession) {
  const std::string dir = "ckpt_poison";
  const auto csr = stage_resumable_checkpoint(dir);

  // kill() is permanent: the rank is dead for good and re-fails every
  // attempt, so a restart budget must NOT be burned retrying the update.
  auto session = Plan::distributed(3)
                     .resume(dir)
                     .inject_faults(dc::FaultPlan().kill(1, /*phase=*/0, /*iteration=*/0))
                     .max_restarts(3)
                     .open(csr);
  ASSERT_GE(session.result().recovery.resumed_from_phase, 1);

  const auto batch = EdgeBatch().add(0, 120, 1.0);
  EXPECT_THROW(session.update(batch), dc::RankDead);

  // The death was taken as a verdict, and the session is poisoned: the
  // resident per-rank slices are partitioned for a world that lost a rank.
  // (result() itself now reports the poisoning, so the message is the
  // only telemetry left -- that is the point of the bugfix.)
  ASSERT_FALSE(session.poisoned().empty());
  EXPECT_NE(session.poisoned().find("rank-death"), std::string::npos);
  EXPECT_NE(session.poisoned().find("re-open the plan"), std::string::npos);

  // Every subsequent use reports the original cause as SessionPoisoned --
  // result() via the const accessor, update() before touching anything.
  const auto& poisoned_session = session;
  EXPECT_THROW((void)poisoned_session.result(), dlouvain::SessionPoisoned);
  try {
    session.update(EdgeBatch().add(2, 3, 1.0));
    FAIL() << "expected SessionPoisoned";
  } catch (const dlouvain::SessionPoisoned& e) {
    EXPECT_NE(std::string(e.what()).find("rank-death"), std::string::npos);
  }
  EXPECT_EQ(session.updates_applied(), 0);
  std::filesystem::remove_all(dir);
}

// ---- ISSUE 9 satellite 2: checkpoint-dir collision between live Plans ------

TEST(CheckpointLock, TwoSimultaneousSessionsSameDirCollide) {
  const std::string dir = "ckpt_lock_collision";
  std::filesystem::remove_all(dir);
  const auto g = gen::clique_chain(6, 8);
  const auto csr = dg::from_edges(g.num_vertices, g.edges);

  const auto plan = Plan::distributed(2).checkpointing(dir);
  auto first = plan.open(csr);  // holds the directory lock while resident

  // Pre-PR, the second session silently interleaved (and pruned) the
  // first's phase files. Now open() fails fast, naming both owners.
  try {
    auto second = plan.open(csr);
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find("in use by"), std::string::npos) << what;
    // Both parties are named: the holder's pidfile line and this plan.
    EXPECT_NE(what.find("pid"), std::string::npos) << what;
    EXPECT_NE(what.find("different directories"), std::string::npos) << what;
  }

  // The lock is released with the session: a sequential reuse is fine.
  {
    auto moved = std::move(first);  // lock moves with the session
    EXPECT_THROW((void)plan.open(csr), PlanError);
  }
  EXPECT_NO_THROW((void)plan.open(csr));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointLock, StaleLockReclaimedLiveLockHonoured) {
  namespace fs = std::filesystem;
  const std::string dir = "ckpt_lock_unit";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // A lock whose pid is gone (crashed process) is stale: reclaimed, so
  // recovery-by-resume after a hard crash still works.
  {
    std::ofstream(dir + "/LOCK") << "pid 4000000 session s99\n";
    core::CheckpointDirLock lock(dir, "fresh");
    EXPECT_NE(lock.owner_line().find("session fresh"), std::string::npos);
  }
  // Released on destruction.
  EXPECT_FALSE(fs::exists(dir + "/LOCK"));

  // A live holder (this process) is honoured -- CheckpointDirBusy carries
  // the holder's line so the caller can name it.
  core::CheckpointDirLock held(dir, "alpha");
  try {
    core::CheckpointDirLock second(dir, "beta");
    FAIL() << "expected CheckpointDirBusy";
  } catch (const core::CheckpointDirBusy& busy) {
    EXPECT_NE(busy.owner.find("session alpha"), std::string::npos) << busy.owner;
    EXPECT_NE(std::string(busy.what()).find(dir), std::string::npos);
  }
  fs::remove_all(dir);
}

// ---- ISSUE 9 satellite 3: EdgeBatch duplicate-change semantics --------------
//
// The documented contract (dlouvain.hpp EdgeBatch): removals resolve against
// the PRE-batch graph and additions apply after, regardless of listed order;
// duplicate adds sum (on top of the surviving pre-batch weight); duplicate
// removes are an error. Pinned here for BOTH engines: absolute graph-level
// semantics via with_edge_changes against an explicitly-built expected
// graph, and engine-level equivalence via bitwise-identical session results
// for equivalent batches.

namespace {

/// with_edge_changes(before, changes) must produce exactly `expected`
/// (weights compared bitwise via EXPECT_DOUBLE_EQ on every arc).
void expect_changes_yield(const dg::Csr& before, const std::vector<dg::EdgeChange>& changes,
                          const dg::Csr& expected) {
  dc::run(2, [&](dc::Comm& comm) {
    const auto mutated =
        dg::DistGraph::from_replicated(comm, before).with_edge_changes(comm, changes);
    for (VertexId lv = 0; lv < mutated.local_count(); ++lv) {
      const VertexId gv = mutated.to_global(lv);
      const auto got = mutated.local().neighbors(lv);
      const auto want = expected.neighbors(gv);
      ASSERT_EQ(got.size(), want.size()) << "row " << gv;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dst, want[i].dst) << "row " << gv;
        EXPECT_DOUBLE_EQ(got[i].weight, want[i].weight) << "row " << gv;
      }
    }
  });
}

/// The clique-chain fixture: {0,1} is an intra-clique edge of weight 1;
/// {0,9} does not exist (different cliques, no bridge).
struct DupFixture {
  EdgeLedger ledger;
  dg::Csr before;

  DupFixture() : ledger(EdgeLedger::from(gen::clique_chain(4, 8))), before(ledger.csr()) {}

  [[nodiscard]] dg::Csr with_weight01(double w) const {
    auto edges = ledger.edges;
    for (auto& e : edges) {
      if (e.src == 0 && e.dst == 1) {
        e.weight = w;
        return dg::from_edges(ledger.n, edges);
      }
    }
    ADD_FAILURE() << "fixture lost edge {0,1}";
    return before;
  }
};

}  // namespace

TEST(EdgeBatchSemantics, DuplicateAddsSumAcrossOrientations) {
  const DupFixture fx;
  // add(0,1,2) + add(1,0,3): one undirected edge, weights sum onto the
  // pre-batch weight 1 -> 6. Orientation never matters.
  expect_changes_yield(fx.before,
                       {dg::EdgeChange{0, 1, 2.0, false}, dg::EdgeChange{1, 0, 3.0, false}},
                       fx.with_weight01(6.0));
}

TEST(EdgeBatchSemantics, RemoveThenAddReplacesRegardlessOfOrder) {
  const DupFixture fx;
  // Removal consumes the pre-batch edge; the addition then creates it
  // fresh: final weight is exactly 4, NOT 1+4.
  const dg::Csr expected = fx.with_weight01(4.0);
  expect_changes_yield(fx.before,
                       {dg::EdgeChange{0, 1, 0.0, true}, dg::EdgeChange{0, 1, 4.0, false}},
                       expected);
  // Listed order is immaterial: removals resolve against the PRE-batch
  // graph even when written after the add.
  expect_changes_yield(fx.before,
                       {dg::EdgeChange{0, 1, 4.0, false}, dg::EdgeChange{0, 1, 0.0, true}},
                       expected);
}

TEST(EdgeBatchSemantics, DuplicateRemoveThrowsEverywhere) {
  const DupFixture fx;
  // The second removal names an edge the pre-batch graph holds only once.
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, fx.before);
    const std::vector<dg::EdgeChange> dup{dg::EdgeChange{0, 1, 0.0, true},
                                          dg::EdgeChange{1, 0, 0.0, true}};
    EXPECT_THROW((void)dist.with_edge_changes(comm, dup), std::invalid_argument);
  });
  // Same verdict through a session, which must stay unmutated.
  auto session = Plan::distributed(2).open(fx.before);
  const auto before_mod = session.result().modularity;
  EXPECT_THROW(session.update(EdgeBatch().remove(0, 1).remove(1, 0)),
               std::invalid_argument);
  EXPECT_EQ(session.result().modularity, before_mod);
  EXPECT_EQ(session.updates_applied(), 0);
}

TEST(EdgeBatchSemantics, AddThenRemoveOfAbsentEdgeThrows) {
  const DupFixture fx;
  // {0,9} is absent pre-batch; the add in the same batch does NOT rescue
  // the removal (removals resolve pre-batch, by contract).
  dc::run(2, [&](dc::Comm& comm) {
    const auto dist = dg::DistGraph::from_replicated(comm, fx.before);
    const std::vector<dg::EdgeChange> changes{dg::EdgeChange{0, 9, 1.0, false},
                                              dg::EdgeChange{0, 9, 0.0, true}};
    EXPECT_THROW((void)dist.with_edge_changes(comm, changes), std::invalid_argument);
  });
  auto session = Plan::distributed(2).open(fx.before);
  EXPECT_THROW(session.update(EdgeBatch().add(0, 9, 1.0).remove(0, 9)),
               std::invalid_argument);
  EXPECT_EQ(session.updates_applied(), 0);
}

TEST(EdgeBatchSemantics, EquivalentBatchesConvergeBitwiseIdentically) {
  // Engine-level pin: two textually different but semantically equal
  // batches (same post-batch graph, same touched set) must leave two
  // sessions bitwise identical through the warm path.
  const DupFixture fx;
  auto a = Plan::distributed(3).open(fx.before);
  auto b = Plan::distributed(3).open(fx.before);
  // a: remove {0,1} then add it back at 4.  b: top up {0,1} by 3 (1+3=4).
  a.update(EdgeBatch().remove(0, 1).add(0, 1, 4.0));
  b.update(EdgeBatch().add(0, 1, 3.0));
  expect_bitwise_equal(a.result(), b.result());
}
