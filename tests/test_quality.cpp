// Tests for the ground-truth quality metrics (precision / recall / F-score,
// paper Section V-D methodology).
#include <gtest/gtest.h>

#include "gen/lfr.hpp"
#include "graph/csr.hpp"
#include "louvain/serial.hpp"
#include "quality/fscore.hpp"
#include "quality/nmi.hpp"
#include "quality/summary.hpp"

namespace dq = dlouvain::quality;
using dlouvain::CommunityId;

TEST(Quality, PerfectMatchScoresOne) {
  const std::vector<CommunityId> truth{0, 0, 1, 1, 2, 2};
  const std::vector<CommunityId> detected{5, 5, 9, 9, 7, 7};  // ids may differ
  const auto s = dq::compare_to_ground_truth(detected, truth);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(s.f_score, 1.0);
  EXPECT_EQ(s.ground_truth_communities, 3u);
  EXPECT_EQ(s.detected_communities, 3u);
}

TEST(Quality, MergingCommunitiesKeepsRecallOne) {
  // Detector merged the two truth communities into one: recall stays 1.0,
  // precision halves -- the Table VII signature.
  const std::vector<CommunityId> truth{0, 0, 1, 1};
  const std::vector<CommunityId> detected{3, 3, 3, 3};
  const auto s = dq::compare_to_ground_truth(detected, truth);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(s.precision, 0.5);
  EXPECT_NEAR(s.f_score, 2 * 0.5 / 1.5, 1e-12);
}

TEST(Quality, SplittingCommunitiesKeepsPrecisionOne) {
  const std::vector<CommunityId> truth{0, 0, 0, 0};
  const std::vector<CommunityId> detected{1, 1, 2, 2};
  const auto s = dq::compare_to_ground_truth(detected, truth);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 0.5);
}

TEST(Quality, WeightsBySizeNotByCommunityCount) {
  // One big perfect community (8 vertices) + one tiny merged pair: the
  // aggregate is dominated by the big one.
  std::vector<CommunityId> truth(8, 0);
  std::vector<CommunityId> detected(8, 0);
  truth.insert(truth.end(), {1, 2});
  detected.insert(detected.end(), {9, 9});
  const auto s = dq::compare_to_ground_truth(detected, truth);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_GT(s.precision, 0.8);  // 8/10 * 1.0 + 2/10 * 0.5
  EXPECT_NEAR(s.precision, 0.9, 1e-12);
}

TEST(Quality, RejectsBadInput) {
  const std::vector<CommunityId> a{0, 1};
  const std::vector<CommunityId> b{0};
  EXPECT_THROW((void)dq::compare_to_ground_truth(a, b), std::invalid_argument);
  EXPECT_THROW((void)dq::compare_to_ground_truth({}, {}), std::invalid_argument);
}

TEST(Quality, LouvainOnLfrScoresHigh) {
  // End-to-end smoke of the Section V-D pipeline: LFR with mild mixing,
  // serial Louvain, scores near 1 with recall >= precision.
  dlouvain::gen::LfrParams p;
  p.num_vertices = 600;
  p.avg_degree = 16;
  p.max_degree = 48;
  p.mu = 0.1;
  const auto graph = dlouvain::gen::lfr(p);
  const auto g = dlouvain::graph::from_edges(graph.num_vertices, graph.edges);
  const auto result = dlouvain::louvain::louvain_serial(g);
  const auto s = dq::compare_to_ground_truth(result.community, graph.ground_truth);
  EXPECT_GT(s.f_score, 0.85);
  EXPECT_GE(s.recall, s.precision - 1e-9);
}

// ---- NMI -------------------------------------------------------------------

TEST(Nmi, IdenticalPartitionsScoreOne) {
  const std::vector<CommunityId> a{0, 0, 1, 1, 2, 2};
  const std::vector<CommunityId> b{7, 7, 3, 3, 9, 9};  // relabeled
  EXPECT_NEAR(dq::normalized_mutual_information(a, b), 1.0, 1e-12);
}

TEST(Nmi, IndependentPartitionsScoreNearZero) {
  // a splits front/back halves; b alternates: I(a;b) = 0 exactly.
  const std::vector<CommunityId> a{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<CommunityId> b{0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_NEAR(dq::normalized_mutual_information(a, b), 0.0, 1e-12);
}

TEST(Nmi, MergedPartitionScoresBetweenZeroAndOne) {
  const std::vector<CommunityId> truth{0, 0, 1, 1, 2, 2, 3, 3};
  const std::vector<CommunityId> merged{0, 0, 0, 0, 1, 1, 1, 1};
  const double nmi = dq::normalized_mutual_information(merged, truth);
  EXPECT_GT(nmi, 0.3);
  EXPECT_LT(nmi, 1.0);
  // Symmetric by definition.
  EXPECT_NEAR(nmi, dq::normalized_mutual_information(truth, merged), 1e-12);
}

TEST(Nmi, TrivialPartitionsScoreOne) {
  const std::vector<CommunityId> a{5, 5, 5};
  const std::vector<CommunityId> b{1, 1, 1};
  EXPECT_DOUBLE_EQ(dq::normalized_mutual_information(a, b), 1.0);
}

TEST(Nmi, RejectsBadInput) {
  const std::vector<CommunityId> a{0, 1};
  const std::vector<CommunityId> b{0};
  EXPECT_THROW((void)dq::normalized_mutual_information(a, b), std::invalid_argument);
}

TEST(Nmi, HighOnEasyLfr) {
  dlouvain::gen::LfrParams p;
  p.num_vertices = 500;
  p.avg_degree = 16;
  p.max_degree = 48;
  p.mu = 0.1;
  const auto graph = dlouvain::gen::lfr(p);
  const auto g = dlouvain::graph::from_edges(graph.num_vertices, graph.edges);
  const auto result = dlouvain::louvain::louvain_serial(g);
  EXPECT_GT(dq::normalized_mutual_information(result.community, graph.ground_truth), 0.8);
}

// ---- Community summaries -----------------------------------------------------

TEST(Summary, TwoTrianglesWithBridge) {
  const auto g = dlouvain::graph::from_edges(
      6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}, {4, 5, 1}, {3, 5, 1}, {2, 3, 1}});
  const std::vector<CommunityId> part{0, 0, 0, 1, 1, 1};
  const auto summaries = dq::summarize_communities(g, part);
  ASSERT_EQ(summaries.size(), 2u);
  for (const auto& s : summaries) {
    EXPECT_EQ(s.size, 3);
    EXPECT_DOUBLE_EQ(s.internal_weight, 3.0);  // each triangle: 3 edges
    EXPECT_DOUBLE_EQ(s.boundary_weight, 1.0);  // the bridge
    EXPECT_DOUBLE_EQ(s.total_degree, 7.0);
    EXPECT_NEAR(s.conductance, 1.0 / 7.0, 1e-12);
  }
  // Coverage: 12 of 14 arc weight is intra.
  EXPECT_NEAR(dq::coverage(g, part), 12.0 / 14.0, 1e-12);
}

TEST(Summary, SortsByDescendingSize) {
  const auto g = dlouvain::graph::from_edges(5, {{0, 1, 1}, {2, 3, 1}, {3, 4, 1}, {2, 4, 1}});
  const std::vector<CommunityId> part{7, 7, 9, 9, 9};
  const auto summaries = dq::summarize_communities(g, part);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].id, 9);
  EXPECT_EQ(summaries[0].size, 3);
  EXPECT_EQ(summaries[1].id, 7);
}

TEST(Summary, SelfLoopsCountAsInternal) {
  const auto g = dlouvain::graph::from_edges(2, {{0, 0, 2.0}, {0, 1, 1.0}});
  const std::vector<CommunityId> part{0, 1};
  const auto summaries = dq::summarize_communities(g, part);
  const auto& big = summaries[0].id == 0 ? summaries[0] : summaries[1];
  EXPECT_DOUBLE_EQ(big.internal_weight, 2.0);
  EXPECT_DOUBLE_EQ(big.boundary_weight, 1.0);
}

TEST(Summary, CoverageIsOneWhenEverythingIntra) {
  const auto g = dlouvain::graph::from_edges(3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}});
  const std::vector<CommunityId> one(3, 0);
  EXPECT_DOUBLE_EQ(dq::coverage(g, one), 1.0);
}
