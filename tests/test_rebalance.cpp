// Phase-boundary dynamic load re-balancing (ISSUE 10), pinned as tests:
//
//  * the surplus/deficit model (core/rebalance.hpp) is pure and
//    deterministic: lambda = max/mean, per-rank loads from an explicit
//    histogram, migration stats between two ownership maps, and a decide
//    step that declines below threshold, declines when the edge-balanced
//    candidate is not a STRICT improvement, and engages otherwise;
//  * the decline path is invisible: with the knob on but the threshold
//    never crossed, every result bit (communities, modularity, messages,
//    bytes) matches the rebalance-off run at 1/4/16 threads;
//  * the engaged path is deterministic: identical bits across thread counts
//    and under delay/duplication fault injection, and its clustering is
//    quality-equivalent to the off-run (migration changes sweep orders, so
//    on-vs-off bitwise identity is deliberately NOT claimed -- same reason
//    different-p checkpoint resume is not bitwise, see checkpoint.hpp);
//  * satellite 2: checkpoints record the active ownership map, and a
//    same-p resume onto a MIGRATED partition reproduces the uninterrupted
//    run bit for bit;
//  * satellite 1: the manifest always carries per-phase load_lambda /
//    time_lambda and the v5 "rebalance" object, knob on or off;
//  * the config fingerprint mixes the rebalance knob ONLY when enabled, so
//    pre-existing checkpoints keep resuming under a default config.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/dist_config.hpp"
#include "core/rebalance.hpp"
#include "dlouvain.hpp"
#include "gen/surrogate.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"

namespace {

using namespace dlouvain;
using core::decide_rebalance;
using core::load_imbalance;
using core::migration_stats;
using core::partition_loads;
namespace dc = dlouvain::comm;

/// The skewed fixture: the twitter-2010 surrogate's coarse graphs carry
/// enough degree skew that an 8-rank run crosses lambda 1.2 at a phase
/// boundary and the edge-balanced candidate strictly improves on it.
graph::Csr skewed_graph() {
  const auto g = gen::surrogate("twitter-2010", 1.0);
  return graph::from_edges(g.num_vertices, g.edges);
}

/// A well-balanced fixture where the default threshold never trips.
graph::Csr balanced_graph() {
  const auto g = gen::surrogate("channel", 0.3);
  return graph::from_edges(g.num_vertices, g.edges);
}

std::filesystem::path fresh_dir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every bit a rebalance test cares about, comparable with EXPECT_EQ.
struct Bits {
  std::vector<CommunityId> community;
  std::uint64_t modularity_bits;
  std::int64_t messages;
  std::int64_t bytes;
  int phases;

  explicit Bits(const Result& r)
      : community(r.community),
        modularity_bits(std::bit_cast<std::uint64_t>(r.modularity)),
        messages(r.distributed->messages),
        bytes(r.distributed->bytes),
        phases(r.phases) {}

  friend bool operator==(const Bits&, const Bits&) = default;
};

// ---- the pure model -----------------------------------------------------

TEST(RebalanceModel, LoadImbalanceIsMaxOverMean) {
  EXPECT_EQ(load_imbalance(std::vector<std::int64_t>{}), 1.0);
  EXPECT_EQ(load_imbalance(std::vector<std::int64_t>{7}), 1.0);
  EXPECT_EQ(load_imbalance(std::vector<std::int64_t>{10, 10, 10, 10}), 1.0);
  EXPECT_EQ(load_imbalance(std::vector<std::int64_t>{0, 0, 0}), 1.0);
  // mean = 15, max = 30.
  EXPECT_DOUBLE_EQ(load_imbalance(std::vector<std::int64_t>{30, 10, 10, 10}), 2.0);
  EXPECT_DOUBLE_EQ(load_imbalance(std::vector<double>{3.0, 1.0}), 1.5);
  EXPECT_THROW((void)load_imbalance(std::vector<std::int64_t>{5, -1}),
               std::invalid_argument);
}

TEST(RebalanceModel, PartitionLoadsSumsOwnedRanges) {
  // Ranks own [0,2) [2,3) [3,6).
  const graph::Partition1D part(std::vector<VertexId>{0, 2, 3, 6});
  const std::vector<std::int64_t> hist{5, 1, 10, 2, 2, 2};
  const auto loads = partition_loads(part, hist);
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_EQ(loads[0], 6);
  EXPECT_EQ(loads[1], 10);
  EXPECT_EQ(loads[2], 6);
  EXPECT_THROW((void)partition_loads(part, std::vector<std::int64_t>{1, 2}),
               std::invalid_argument);
}

TEST(RebalanceModel, MigrationStatsCountsMovedRanges) {
  const std::vector<std::int64_t> hist{5, 1, 10, 2, 2, 2};
  const graph::Partition1D from(std::vector<VertexId>{0, 2, 3, 6});
  // All three ranges shift: rank 0 widens to [0,3), rank 1 slides to [3,4),
  // rank 2 shrinks to [4,6). Vertex 2 (10 arcs) moves to rank 0, vertex 3
  // (2 arcs) moves to rank 1.
  const graph::Partition1D to(std::vector<VertexId>{0, 3, 4, 6});
  const auto stats = migration_stats(from, to, hist);
  EXPECT_EQ(stats.ranges_moved, 3);
  EXPECT_EQ(stats.vertices_migrated, 2);
  EXPECT_EQ(stats.arcs_migrated, 12);

  const auto none = migration_stats(from, from, hist);
  EXPECT_EQ(none.ranges_moved, 0);
  EXPECT_EQ(none.vertices_migrated, 0);
  EXPECT_EQ(none.arcs_migrated, 0);

  EXPECT_THROW((void)migration_stats(
                   from, graph::Partition1D(std::vector<VertexId>{0, 6}), hist),
               std::invalid_argument);
}

TEST(RebalanceModel, DecideDeclinesBelowThreshold) {
  // Even split of 8 vertices over 2 ranks is perfectly balanced here.
  const std::vector<std::int64_t> hist(8, 3);
  const auto d = decide_rebalance(8, 2, 1.5, hist);
  EXPECT_TRUE(d.evaluated);
  EXPECT_FALSE(d.engaged);
  EXPECT_DOUBLE_EQ(d.lambda_pre, 1.0);
  EXPECT_DOUBLE_EQ(d.lambda_post, 1.0);
  EXPECT_EQ(d.partition, graph::partition_even_vertices(8, 2));
  EXPECT_EQ(d.stats.vertices_migrated, 0);
}

TEST(RebalanceModel, DecideEngagesOnFixableSkew) {
  // 8 vertices, 2 ranks. Even split puts the four heavy vertices on rank 0:
  // loads {40, 4}, lambda_pre = 40/22. The edge-balanced cut after vertex 2
  // yields {30, 14}, a strict improvement.
  const std::vector<std::int64_t> hist{10, 10, 10, 10, 1, 1, 1, 1};
  const auto d = decide_rebalance(8, 2, 1.5, hist);
  EXPECT_TRUE(d.evaluated);
  EXPECT_TRUE(d.engaged);
  EXPECT_DOUBLE_EQ(d.lambda_pre, 40.0 / 22.0);
  EXPECT_LT(d.lambda_post, d.lambda_pre);
  EXPECT_NE(d.partition, graph::partition_even_vertices(8, 2));
  EXPECT_GT(d.stats.vertices_migrated, 0);
  EXPECT_GT(d.stats.arcs_migrated, 0);
  // Model lambdas are consistent with the partition it returns.
  EXPECT_DOUBLE_EQ(d.lambda_post,
                   load_imbalance(partition_loads(d.partition, hist)));
}

TEST(RebalanceModel, DecideDeclinesWhenNoStrictImprovementExists) {
  // One dominant vertex and nothing else: the even split's max IS vertex
  // 0's 100 arcs, and so is every candidate's, so the edge-balanced cut
  // cannot STRICTLY improve lambda -> decline (keep the even split).
  const std::vector<std::int64_t> hist{100, 0, 0, 0};
  const auto d = decide_rebalance(4, 2, 1.5, hist);
  EXPECT_TRUE(d.evaluated);
  EXPECT_FALSE(d.engaged);
  EXPECT_DOUBLE_EQ(d.lambda_pre, 2.0);
  EXPECT_DOUBLE_EQ(d.lambda_post, d.lambda_pre);
  EXPECT_EQ(d.partition, graph::partition_even_vertices(4, 2));
}

TEST(RebalanceModel, DecideIsDeterministic) {
  std::vector<std::int64_t> hist;
  for (int i = 0; i < 257; ++i) hist.push_back((i * 37) % 23);
  const auto a = decide_rebalance(257, 7, 1.2, hist);
  const auto b = decide_rebalance(257, 7, 1.2, hist);
  EXPECT_EQ(a.engaged, b.engaged);
  EXPECT_EQ(a.partition.starts(), b.partition.starts());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lambda_pre),
            std::bit_cast<std::uint64_t>(b.lambda_pre));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lambda_post),
            std::bit_cast<std::uint64_t>(b.lambda_post));
}

// ---- decline path: bitwise invisible ------------------------------------

TEST(Rebalance, DeclinePathIsBitwiseIdenticalToOff) {
  // A threshold no real lambda reaches: every boundary is screened and
  // declined, and the run must be indistinguishable from rebalance-off --
  // same communities, modularity bits, and algorithm traffic (the screen's
  // collectives are reclassified into the rebalance.* counters).
  const auto g = balanced_graph();
  for (const int threads : {1, 4, 16}) {
    const auto off = Plan::distributed(4).threads(threads).seed(123).run(g);
    const auto on =
        Plan::distributed(4).threads(threads).seed(123).rebalance(1e9).run(g);
    const auto label = "threads " + std::to_string(threads);
    EXPECT_EQ(Bits(on), Bits(off)) << label;
    EXPECT_EQ(on.distributed->rebalance.phases_engaged, 0) << label;
    EXPECT_EQ(on.distributed->rebalance.phases_declined,
              on.distributed->rebalance.phases_evaluated)
        << label;
    EXPECT_GT(on.distributed->rebalance.phases_evaluated, 0) << label;
  }
}

// ---- engaged path: deterministic, fault-tolerant, quality-equivalent ----

TEST(Rebalance, EngagedRunIsBitwiseIdenticalAcrossThreadCounts) {
  const auto g = skewed_graph();
  const auto reference =
      Plan::distributed(8).threads(1).seed(123).rebalance(1.2).run(g);
  ASSERT_GT(reference.distributed->rebalance.phases_engaged, 0)
      << "fixture must actually migrate; lower the threshold or re-skew";
  ASSERT_GT(reference.distributed->rebalance.vertices_migrated, 0);
  for (const int threads : {4, 16}) {
    const auto r =
        Plan::distributed(8).threads(threads).seed(123).rebalance(1.2).run(g);
    EXPECT_EQ(Bits(r), Bits(reference)) << "threads " << threads;
    EXPECT_EQ(r.distributed->rebalance.phases_engaged,
              reference.distributed->rebalance.phases_engaged)
        << "threads " << threads;
  }
}

TEST(Rebalance, EngagedRunSurvivesFaultInjectionBitwise) {
  // Delay and duplication shuffle delivery orders; the decision must not
  // move (its inputs are allreduced, rank-order-folded) and the bits must
  // not change.
  const auto g = skewed_graph();
  const auto clean =
      Plan::distributed(8).threads(4).seed(123).rebalance(1.2).run(g);
  ASSERT_GT(clean.distributed->rebalance.phases_engaged, 0);
  const auto faulty = Plan::distributed(8)
                          .threads(4)
                          .seed(123)
                          .rebalance(1.2)
                          .inject_faults(dc::FaultPlan()
                                             .with_seed(7)
                                             .delay(0.05, 1.0)
                                             .duplicate(0.05))
                          .run(g);
  EXPECT_EQ(Bits(faulty), Bits(clean));
  EXPECT_EQ(faulty.distributed->rebalance.phases_engaged,
            clean.distributed->rebalance.phases_engaged);
}

TEST(Rebalance, EngagedRunIsQualityEquivalentToOff) {
  // Migration changes sweep orders (partition-keyed PRNG), so the engaged
  // clustering legitimately differs bit-for-bit from the off run -- but it
  // must be the same QUALITY of answer on the same graph.
  const auto g = skewed_graph();
  const auto off = Plan::distributed(8).seed(123).run(g);
  const auto on = Plan::distributed(8).seed(123).rebalance(1.2).run(g);
  ASSERT_GT(on.distributed->rebalance.phases_engaged, 0);
  EXPECT_NEAR(on.modularity, off.modularity, 0.05);
  // Every ENGAGED boundary strictly improved the imbalance it acted on
  // (the run-level max_lambda_* roll-ups can be dominated by a declined
  // boundary, so check the per-phase records).
  for (const auto& ph : on.distributed->phase_telemetry) {
    if (ph.rebalance.engaged) {
      EXPECT_LT(ph.rebalance.lambda_post, ph.rebalance.lambda_pre)
          << "phase " << ph.phase;
    }
  }
}

// ---- satellite 2: checkpoint ownership map ------------------------------

TEST(Rebalance, ResumeOntoMigratedPartitionIsBitwiseIdentical) {
  // Engage, checkpoint every boundary, then kill a rank in a phase AFTER
  // the migration: recovery must resume onto the RECORDED (migrated)
  // ownership map -- deriving it from the rank count would silently change
  // sweep orders -- and land on the uninterrupted run's exact bits.
  const auto g = skewed_graph();
  const int p = 8;
  const auto reference = Plan::distributed(p).seed(123).rebalance(1.2).run(g);
  ASSERT_GT(reference.distributed->rebalance.phases_engaged, 0);

  // First phase whose partition was chosen by an ENGAGED boundary: the
  // boundary at the end of phase k picks phase k+1's partition.
  int migrated_phase = -1;
  const auto& detail = reference.distributed->phase_telemetry;
  for (std::size_t i = 0; i + 1 < detail.size(); ++i) {
    if (detail[i].rebalance.engaged) {
      migrated_phase = detail[i].phase + 1;
      break;
    }
  }
  ASSERT_GE(migrated_phase, 1) << "no phase ran on a migrated partition";

  const auto dir = fresh_dir("dl_rebalance_resume");
  const auto result = Plan::distributed(p)
                          .seed(123)
                          .rebalance(1.2)
                          .checkpointing(dir.string())
                          .inject_faults(dc::FaultPlan().crash(1, migrated_phase))
                          .max_restarts(1)
                          .run(g);
  EXPECT_EQ(result.recovery.resumed_from_phase, migrated_phase);
  EXPECT_EQ(result.community, reference.community);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.modularity),
            std::bit_cast<std::uint64_t>(reference.modularity));
  EXPECT_EQ(result.phases, reference.phases);
  EXPECT_EQ(result.distributed->messages, reference.distributed->messages);
  // (Byte totals are NOT compared: wire payload sizes drift by a few hundred
  // bytes across the checkpoint file round-trip on this fixture, rebalance
  // on or off -- same count of messages, same result bits.)
  std::filesystem::remove_all(dir);
}

// ---- satellite 1: manifest always carries the load picture --------------

TEST(Rebalance, ManifestCarriesLambdasAndRebalanceObjectEvenWhenOff) {
  const auto g = balanced_graph();
  const auto r = Plan::distributed(4).seed(123).run(g);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"schema\":\"dlouvain-run-manifest/6\""), std::string::npos);
  EXPECT_NE(json.find("\"rebalance\":{\"enabled\":false"), std::string::npos);
  EXPECT_NE(json.find("\"decided\":false"), std::string::npos);
  EXPECT_NE(json.find("\"load_lambda\":"), std::string::npos);
  EXPECT_NE(json.find("\"time_lambda\":"), std::string::npos);
  EXPECT_NE(json.find("\"evaluated\":false"), std::string::npos);
  // Off means NOT screened: per-run and per-phase records agree on that.
  EXPECT_EQ(r.distributed->rebalance.phases_evaluated, 0);
  for (const auto& ph : r.distributed->phase_telemetry) {
    EXPECT_FALSE(ph.rebalance.evaluated);
    EXPECT_GE(ph.load_lambda, 1.0);
    EXPECT_GE(ph.time_lambda, 1.0);
  }
}

TEST(Rebalance, ManifestRecordsEngagedBoundaries) {
  const auto g = skewed_graph();
  const auto r = Plan::distributed(8).seed(123).rebalance(1.2).run(g);
  ASSERT_GT(r.distributed->rebalance.phases_engaged, 0);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"rebalance\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"decided\":true"), std::string::npos);
  EXPECT_NE(json.find("\"engaged\":true"), std::string::npos);
}

// ---- plan validation and fingerprints -----------------------------------

TEST(Rebalance, PlanRejectsBadThresholdAndWrongEngine) {
  const auto g = balanced_graph();
  EXPECT_THROW(Plan::distributed(4).rebalance(0.9).run(g), PlanError);
  EXPECT_THROW(Plan::serial().rebalance().run(g), PlanError);
  EXPECT_THROW(Plan::shared(2).rebalance().run(g), PlanError);
}

TEST(Rebalance, FingerprintMixesKnobOnlyWhenEnabled) {
  core::DistConfig base;
  const auto plain = core::config_fingerprint(base);

  core::DistConfig disabled_other_threshold = base;
  disabled_other_threshold.rebalance.threshold = 9.0;  // still disabled
  EXPECT_EQ(core::config_fingerprint(disabled_other_threshold), plain)
      << "a disabled knob must not invalidate pre-existing checkpoints";

  core::DistConfig enabled = base;
  enabled.rebalance.enabled = true;
  EXPECT_NE(core::config_fingerprint(enabled), plain);

  core::DistConfig enabled_other = enabled;
  enabled_other.rebalance.threshold = 2.5;
  EXPECT_NE(core::config_fingerprint(enabled_other),
            core::config_fingerprint(enabled));
}

}  // namespace
