// PR3 hot-path overhaul guarantees, pinned as tests:
//
//  * fixed-seed results are BITWISE identical to the pre-overhaul (hash-map
//    kernel, full-refetch ledger, dense-only exchange) implementation --
//    golden constants below were captured from that implementation;
//  * thread counts 1/4/16 never change a single bit (the PR 1 contract,
//    re-verified on the flat kernels);
//  * the ghost-exchange wire-format pick ships both dense and delta updates
//    within one run and still lands on the golden bits, even under
//    fault-injection delay and duplication plans; at the field level, every
//    exchange leaves each ghost slot equal to its owner's value and reports
//    exactly the slots it changed.
//
// To regenerate the golden constants after an INTENDED algorithmic change:
// run each Plan below and print util::crc32 of the community vector plus
// std::bit_cast<uint64_t> of the modularity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/world.hpp"
#include "core/ghost_exchange.hpp"
#include "dlouvain.hpp"
#include "gen/rmat.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "louvain/serial.hpp"
#include "louvain/shared.hpp"
#include "util/crc32.hpp"

namespace {

using namespace dlouvain;
namespace dc = dlouvain::comm;
namespace dg = dlouvain::graph;

graph::Csr rmat10() {
  gen::RmatParams p;
  p.scale = 10;
  p.edges_per_vertex = 8;
  p.seed = 42;
  const auto g = gen::rmat(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

graph::Csr ssca2k() {
  gen::Ssca2Params p;
  p.num_vertices = 2000;
  p.max_clique_size = 25;
  p.inter_clique_prob = 0.01;
  const auto g = gen::ssca2(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

std::uint32_t crc_of(const std::vector<CommunityId>& v) {
  return util::crc32(v.data(), v.size() * sizeof(CommunityId));
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

struct Golden {
  std::uint64_t modularity_bits;
  std::uint32_t community_crc;
  CommunityId num_communities;
  int phases;
  long iterations;
};

/// Takes a Plan's Result or a comparator's louvain::LouvainResult.
template <typename R>
void expect_golden(const R& r, const Golden& want, const std::string& label) {
  EXPECT_EQ(bits_of(r.modularity), want.modularity_bits) << label;
  EXPECT_EQ(crc_of(r.community), want.community_crc) << label;
  EXPECT_EQ(r.num_communities, want.num_communities) << label;
  EXPECT_EQ(r.phases, want.phases) << label;
  EXPECT_EQ(r.total_iterations, want.iterations) << label;
}

// Captured from the pre-PR3 implementation (RMAT scale 10, epv 8, graph seed
// 42; SSCA2 n=2000 clique 25 p=0.01; all plans .seed(123)).
constexpr Golden kSerialRmat{0x3fc65df4311c433eULL, 0x56659c72u, 224, 5, 18};
constexpr Golden kSharedRmat{0x3fc6f6ff9929a4ecULL, 0x95eddb9cu, 225, 4, 21};
constexpr Golden kDistP1Rmat{0x3fc68495206dc15cULL, 0xe8144548u, 225, 4, 20};
// Re-baselined for ISSUE 5: the interior-first sweep schedule reorders the
// multi-rank sweep (interior vertices before boundary, pre-refresh interior
// decisions), so p>1 results changed once. p=1 constants above are untouched
// -- on one rank every vertex is interior and the schedule is the seed's.
constexpr Golden kDistP4Rmat{0x3fc41f2c83fa1be6ULL, 0xa7beaffcu, 223, 5, 22};
constexpr Golden kDistP4Ssca{0x3fef5fedcefcb7b3ULL, 0x271ea84au, 92, 4, 10};
constexpr Golden kDistP4EtcRmat{0x3fc5320bfcf4eeb4ULL, 0x2893ab57u, 225, 5, 25};
constexpr Golden kDistP2TcRmat{0x3fc65be14dc1851fULL, 0x158f0e83u, 226, 5, 21};

TEST(GoldenSeed, SerialMatchesPreOverhaulBits) {
  expect_golden(louvain::louvain_serial(rmat10(), {.seed = 123}), kSerialRmat, "serial");
}

TEST(GoldenSeed, SharedMatchesAcrossThreadCounts) {
  const auto g = rmat10();
  for (const int threads : {1, 4, 16}) {
    expect_golden(louvain::louvain_shared(g, {.seed = 123}, threads), kSharedRmat,
                  "shared t" + std::to_string(threads));
  }
}

TEST(GoldenSeed, DistributedMatchesAcrossThreadCounts) {
  const auto g = rmat10();
  for (const int threads : {1, 4, 16}) {
    const auto label = " t" + std::to_string(threads);
    expect_golden(Plan::distributed(1).threads(threads).seed(123).run(g),
                  kDistP1Rmat, "dist p1" + label);
    expect_golden(Plan::distributed(4).threads(threads).seed(123).run(g),
                  kDistP4Rmat, "dist p4" + label);
  }
}

TEST(GoldenSeed, DistributedVariantsMatch) {
  const auto g = rmat10();
  expect_golden(Plan::distributed(4)
                    .threads(1)
                    .seed(123)
                    .variant(Variant::kEtc)
                    .alpha(0.25)
                    .run(g),
                kDistP4EtcRmat, "dist p4 etc");
  expect_golden(Plan::distributed(2)
                    .threads(2)
                    .seed(123)
                    .variant(Variant::kThresholdCycling)
                    .run(g),
                kDistP2TcRmat, "dist p2 tc");
}

// A 2-rank session on rmat10 after two warm updates: an addition of weight
// 2.0, then the removal of vertex 0's first neighbour edge. The weights stay
// integers, so the intra-weight sums are exact in any order (DESIGN §6) and
// these bits hold however the warm phase splits its modularity pass.
constexpr Golden kWarmP2Rmat{0x3fc6fc764508fd62ULL, 0x94c4da5bu, 225, 1, 5};
constexpr long kWarmReconverge[] = {2, 5};

TEST(GoldenSeed, WarmUpdateMatchesPinnedBits) {
  const auto g = rmat10();
  VertexId dropped = kInvalidVertex;
  for (const auto& e : g.neighbors(0))
    if (e.dst != 0) {
      dropped = e.dst;
      break;
    }
  ASSERT_NE(dropped, kInvalidVertex);
  const EdgeBatch batches[] = {EdgeBatch().add(3, 700, 2.0),
                               EdgeBatch().remove(0, dropped)};
  for (const int threads : {1, 4}) {
    const auto label = "warm p2 t" + std::to_string(threads);
    auto session = Plan::distributed(2).threads(threads).seed(123).open(g);
    for (std::size_t b = 0; b < std::size(batches); ++b) {
      const auto where = label + " batch " + std::to_string(b);
      const auto stats = session.update(batches[b]);
      EXPECT_FALSE(stats.fell_back_to_full) << where;
      EXPECT_EQ(stats.reconverge_iterations, kWarmReconverge[b]) << where;
    }
    expect_golden(session.result(), kWarmP2Rmat, label);
  }
}

// ---- the wire-format pick ----------------------------------------------------

std::int64_t counter(const Result& r, util::Counter c) {
  return r.distributed->counters[c];
}

TEST(ExchangeModes, EveryModeMatchesTheGoldenBits) {
  // The per-destination pick ships dense updates early in a phase and delta
  // updates once most vertices stop moving: both wire formats carry real
  // traffic within one run, and the result is still the golden one.
  const struct {
    const char* label;
    graph::Csr g;
    const Golden& want;
  } cases[] = {{"rmat10", rmat10(), kDistP4Rmat}, {"ssca2", ssca2k(), kDistP4Ssca}};
  for (const auto& c : cases) {
    const auto r = Plan::distributed(4).threads(1).seed(123).run(c.g);
    expect_golden(r, c.want, c.label);
    EXPECT_GT(counter(r, util::Counter::kGhostBytesDense), 0) << c.label;
    EXPECT_GT(counter(r, util::Counter::kGhostBytesDelta), 0) << c.label;
  }
}

TEST(ExchangeModes, DeltaSurvivesDelayAndDuplicationFaults) {
  const auto g = rmat10();
  const auto faults = comm::FaultPlan().with_seed(11).delay(0.05, 0.5).duplicate(0.05);
  const auto r =
      Plan::distributed(4).threads(1).seed(123).inject_faults(faults).run(g);
  expect_golden(r, kDistP4Rmat, "faulty");
  EXPECT_GT(counter(r, util::Counter::kGhostBytesDelta), 0);
}

TEST(ExchangeModes, GhostFieldContentsAgreeUnderFaultyComm) {
  // Field-level invariant: after every exchange each ghost slot holds its
  // owner's value, and last_changes() lists exactly the slots that changed,
  // each with the value it replaced -- even when the transport delays and
  // duplicates messages. The owned pattern is a pure function of (global id,
  // round), so every rank can compute what each ghost's owner sent.
  gen::RmatParams p;
  p.scale = 7;
  p.edges_per_vertex = 8;
  p.seed = 9;
  const auto g = gen::rmat(p);
  const auto csr = graph::from_edges(g.num_vertices, g.edges);

  // Round 0 changes every slot (dense); rounds 1-4 each move the eighth of
  // the vertices with gv % 8 == round (few enough for the delta pick); round
  // 5 repeats round 4 and must change nothing.
  const auto value_of = [](VertexId gv, int round) -> std::int64_t {
    return gv % 8 != 0 && gv % 8 <= std::min(round, 4) ? gv + 1000 : gv;
  };

  dc::RunOptions options;
  options.faults = std::make_shared<dc::FaultInjector>(
      dc::FaultPlan().with_seed(5).delay(0.1, 0.3).duplicate(0.1));
  options.metrics = std::make_shared<util::MetricsRegistry>(3);
  dc::run(
      3,
      [&](dc::Comm& comm) {
        const auto dist = dg::DistGraph::from_replicated(comm, csr);
        const auto& ghosts = dist.ghosts();
        core::GhostField<std::int64_t> field(dist, -1);
        std::vector<std::int64_t> before(ghosts.size(), -1);
        std::vector<std::int64_t> owned(static_cast<std::size_t>(dist.local_count()));
        for (int round = 0; round < 6; ++round) {
          for (VertexId lv = 0; lv < dist.local_count(); ++lv)
            owned[static_cast<std::size_t>(lv)] = value_of(dist.to_global(lv), round);
          field.exchange(comm, owned);

          std::vector<std::int64_t> expected_changes;
          for (std::size_t s = 0; s < ghosts.size(); ++s) {
            EXPECT_EQ(field.values()[s], value_of(ghosts[s], round))
                << "round " << round << " ghost " << ghosts[s];
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
          before = field.values();
        }
      },
      options);
  const auto totals = options.metrics->total();
  EXPECT_GT(totals[util::Counter::kGhostBytesDense], 0);
  EXPECT_GT(totals[util::Counter::kGhostBytesDelta], 0);
}

}  // namespace
