// Robustness and property-sweep tests: the karate-club real-graph fixture,
// failure injection in the comm substrate, input validation across modules,
// and a parameterized serial-vs-distributed equivalence sweep over graph
// families and rank counts.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>

#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/dist_louvain.hpp"
#include "dlouvain.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "gen/ssca2.hpp"
#include "graph/binary_io.hpp"
#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "louvain/early_term.hpp"
#include "louvain/modularity.hpp"
#include "louvain/serial.hpp"
#include "louvain/shared.hpp"
#include "quality/fscore.hpp"
#include "util/crc32.hpp"

namespace core = dlouvain::core;
namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;
namespace dl = dlouvain::louvain;
namespace dc = dlouvain::comm;
using dlouvain::CommunityId;
using dlouvain::Edge;
using dlouvain::VertexId;

// ---- Karate club: the canonical real-world fixture ---------------------------

TEST(KarateClub, FixtureMatchesPublishedStructure) {
  const auto g = gen::karate_club();
  EXPECT_EQ(g.num_vertices, 34);
  EXPECT_EQ(g.num_edges(), 78);
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  EXPECT_EQ(csr.degree(0), 16);   // Mr. Hi
  EXPECT_EQ(csr.degree(33), 17);  // the Officer
  EXPECT_EQ(csr.degree(32), 12);
  const auto components = dg::connected_components(csr);
  EXPECT_EQ(components.count, 1);
}

TEST(KarateClub, SerialLouvainFindsKnownModularity) {
  const auto g = gen::karate_club();
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  const auto result = dl::louvain_serial(csr);
  // Louvain's known result band on karate: Q ~ 0.40-0.42, ~4 communities.
  EXPECT_GE(result.modularity, 0.40);
  EXPECT_LE(result.modularity, 0.43);
  EXPECT_GE(result.num_communities, 3);
  EXPECT_LE(result.num_communities, 5);
}

TEST(KarateClub, DistributedMatchesSerialBand) {
  const auto g = gen::karate_club();
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  for (int p : {1, 2, 3, 4}) {
    const auto result = core::dist_louvain_inprocess(p, csr);
    EXPECT_GE(result.modularity, 0.39) << "p=" << p;
    EXPECT_NEAR(result.modularity, dl::modularity(csr, result.community), 1e-9);
  }
}

TEST(KarateClub, CommunitiesRespectTheFactionSplit) {
  // Louvain's communities refine the two factions; mapping each detected
  // community to its majority faction should reproduce the split well.
  const auto g = gen::karate_club();
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  const auto result = dl::louvain_serial(csr);
  const auto scores = dlouvain::quality::compare_to_ground_truth(
      g.ground_truth, result.community);  // detected=truth-side: refinement check
  // Each Louvain community should sit (almost) entirely inside one faction.
  EXPECT_GE(scores.recall, 0.85);
}

// ---- Failure injection in the comm substrate -----------------------------------

TEST(FailureInjection, AbortUnblocksCollectives) {
  // One rank dies mid-protocol while others sit in a barrier chain; everyone
  // must unwind rather than hang, and the original error must surface.
  EXPECT_THROW(dc::run(4,
                       [](dc::Comm& comm) {
                         if (comm.rank() == 3) throw std::runtime_error("injected");
                         for (int i = 0; i < 1000; ++i) comm.barrier();
                       }),
               std::runtime_error);
}

TEST(FailureInjection, AbortUnblocksAlltoallv) {
  EXPECT_THROW(dc::run(3,
                       [](dc::Comm& comm) {
                         if (comm.rank() == 0) throw std::logic_error("dead rank");
                         std::vector<std::vector<int>> outbox(3);
                         for (;;) (void)comm.alltoallv<int>(outbox);
                       }),
               std::logic_error);
}

TEST(FailureInjection, FirstErrorWins) {
  // Multiple ranks throw; run() must report exactly one of them (and not a
  // WorldAborted).
  try {
    dc::run(4, [](dc::Comm& comm) {
      if (comm.rank() % 2 == 0) throw std::runtime_error("rank error");
      (void)comm.recv_bytes((comm.rank() + 1) % 4, 1);
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "rank error");
  }
}

TEST(FailureInjection, CorruptBinaryFileIsRejected) {
  const auto path = std::filesystem::temp_directory_path() / "dlel_corrupt.bin";
  {
    std::ofstream file(path, std::ios::binary);
    const char garbage[64] = "this is not a DLEL file at all.................";
    file.write(garbage, sizeof garbage);
  }
  EXPECT_THROW((void)dg::read_binary_header(path.string()), std::runtime_error);
  EXPECT_THROW((void)dg::read_binary_slice(path.string(), 0, 1), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(FailureInjection, TruncatedBinaryFileIsRejected) {
  const auto path = std::filesystem::temp_directory_path() / "dlel_trunc.bin";
  dg::write_binary(path.string(), 4, {{0, 1, 1.0}, {2, 3, 1.0}});
  // Chop the last record in half.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 12);
  EXPECT_THROW((void)dg::read_binary_slice(path.string(), 0, 2), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(FailureInjection, DistGraphRejectsMismatchedPartition) {
  dc::run(2, [](dc::Comm& comm) {
    const auto part = dg::partition_even_vertices(10, 3);  // wrong rank count
    EXPECT_THROW((void)dg::DistGraph::build(comm, part, {}, true),
                 std::invalid_argument);
  });
}

TEST(FailureInjection, DistGraphRejectsOutOfRangeEdges) {
  EXPECT_THROW(dc::run(2,
                       [](dc::Comm& comm) {
                         const auto part = dg::partition_even_vertices(4, 2);
                         std::vector<Edge> bad{{0, 9, 1.0}};
                         (void)dg::DistGraph::build(comm, part, std::move(bad), true);
                       }),
               std::out_of_range);
}

// ---- Serial vs distributed equivalence sweep ------------------------------------

struct FamilyCase {
  const char* name;
  dg::Csr (*make)();
};

// Names each FamilySweep instance's parameter by its family. Without it
// gtest prints FamilyCase's raw bytes, two pointers, into the ctest names,
// so they would change from build to build.
void PrintTo(const FamilyCase& family, std::ostream* os) { *os << family.name; }

namespace {

dg::Csr make_lfr_graph() {
  gen::LfrParams p;
  p.num_vertices = 350;
  p.avg_degree = 12;
  p.max_degree = 36;
  p.mu = 0.25;
  p.seed = 21;
  const auto g = gen::lfr(p);
  return dg::from_edges(g.num_vertices, g.edges);
}

dg::Csr make_ssca2_graph() {
  gen::Ssca2Params p;
  p.num_vertices = 400;
  p.max_clique_size = 18;
  p.seed = 22;
  const auto g = gen::ssca2(p);
  return dg::from_edges(g.num_vertices, g.edges);
}

dg::Csr make_rmat_graph() {
  gen::RmatParams p;
  p.scale = 8;
  p.edges_per_vertex = 6;
  p.seed = 23;
  const auto g = gen::rmat(p);
  return dg::from_edges(g.num_vertices, g.edges);
}

dg::Csr make_banded_graph() {
  const auto g = gen::banded(300, 5);
  return dg::from_edges(g.num_vertices, g.edges);
}

dg::Csr make_smallworld_graph() {
  const auto g = gen::watts_strogatz(300, 8, 0.1, 24);
  return dg::from_edges(g.num_vertices, g.edges);
}

}  // namespace

class FamilySweep : public ::testing::TestWithParam<std::tuple<FamilyCase, int>> {};

TEST_P(FamilySweep, DistributedTracksSerialQuality) {
  const auto& [family, p] = GetParam();
  const auto g = family.make();
  const auto serial = dl::louvain_serial(g);
  const auto dist = core::dist_louvain_inprocess(p, g);

  // Exact bookkeeping always; quality within a few percent of serial (the
  // paper's single-node comparison found < 1% on large graphs; small graphs
  // are noisier).
  EXPECT_NEAR(dist.modularity, dl::modularity(g, dist.community), 1e-9)
      << family.name << " p=" << p;
  EXPECT_GT(dist.modularity, serial.modularity - 0.04) << family.name << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesRanks, FamilySweep,
    ::testing::Combine(::testing::Values(FamilyCase{"lfr", &make_lfr_graph},
                                         FamilyCase{"ssca2", &make_ssca2_graph},
                                         FamilyCase{"rmat", &make_rmat_graph},
                                         FamilyCase{"banded", &make_banded_graph},
                                         FamilyCase{"smallworld", &make_smallworld_graph}),
                       ::testing::Values(2, 4, 7)),
    [](const ::testing::TestParamInfo<FamilySweep::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Misc determinism & config checks --------------------------------------------

TEST(Determinism, SerialRunsAreIdentical) {
  const auto g = make_lfr_graph();
  const auto a = dl::louvain_serial(g);
  const auto b = dl::louvain_serial(g);
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.modularity, b.modularity);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
}

TEST(Determinism, DistributedRunsAreIdentical) {
  const auto g = make_ssca2_graph();
  const auto a = core::dist_louvain_inprocess(3, g);
  const auto b = core::dist_louvain_inprocess(3, g);
  EXPECT_EQ(a.community, b.community);
  EXPECT_EQ(a.modularity, b.modularity);
}

TEST(Determinism, SeedChangesTheSweepButNotValidity) {
  const auto g = make_lfr_graph();
  core::DistConfig other_seed;
  other_seed.base.seed = 123456;
  const auto a = core::dist_louvain_inprocess(2, g);
  const auto b = core::dist_louvain_inprocess(2, g, other_seed);
  EXPECT_NEAR(a.modularity, b.modularity, 0.03);
  EXPECT_NEAR(b.modularity, dl::modularity(g, b.community), 1e-9);
}

TEST(Config, EtCutoffIsConfigurable) {
  dl::EtState strict(1, 0.5, 0.6, 1);  // cutoff 60%: one decay -> inactive
  strict.update(0, false);
  EXPECT_FALSE(strict.is_active(0, 0, 0, 1));
  dl::EtState lax(1, 0.5, 0.01, 1);
  lax.update(0, false);
  // At P=0.5 the vertex is probabilistically active; it is NOT labelled
  // inactive (cutoff 1%).
  EXPECT_EQ(lax.inactive_count(), 0);
}

TEST(Config, MaxPhasesBoundsTheRun) {
  const auto g = make_lfr_graph();
  core::DistConfig cfg;
  cfg.base.max_phases = 1;
  const auto result = core::dist_louvain_inprocess(2, g, cfg);
  EXPECT_EQ(result.phases, 1);
}

// ---- Resolution parameter ------------------------------------------------------

TEST(Resolution, GammaOneMatchesClassicModularity) {
  const auto g = make_lfr_graph();
  dl::LouvainConfig plain;
  dl::LouvainConfig gamma_one;
  gamma_one.resolution = 1.0;
  const auto a = dl::louvain_serial(g, plain);
  const auto b = dl::louvain_serial(g, gamma_one);
  EXPECT_EQ(a.community, b.community);
}

TEST(Resolution, HigherGammaYieldsMoreCommunities) {
  const auto g = make_ssca2_graph();
  dl::LouvainConfig lo;
  lo.resolution = 0.3;
  dl::LouvainConfig hi;
  hi.resolution = 3.0;
  const auto coarse = dl::louvain_serial(g, lo);
  const auto fine = dl::louvain_serial(g, hi);
  EXPECT_GT(fine.num_communities, coarse.num_communities);
}

TEST(Resolution, ModularityGammaAgreesWithReference) {
  const auto g = make_rmat_graph();
  std::vector<CommunityId> part(static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t v = 0; v < part.size(); ++v) part[v] = static_cast<CommunityId>(v % 5);
  for (const double gamma : {0.5, 1.0, 2.0}) {
    EXPECT_NEAR(dl::modularity(g, part, gamma), dl::modularity_reference(g, part, gamma),
                1e-12);
  }
}

TEST(Resolution, DistributedRespectsGamma) {
  const auto g = make_ssca2_graph();
  core::DistConfig lo;
  lo.base.resolution = 0.3;
  core::DistConfig hi;
  hi.base.resolution = 3.0;
  const auto coarse = core::dist_louvain_inprocess(3, g, lo);
  const auto fine = core::dist_louvain_inprocess(3, g, hi);
  EXPECT_GT(fine.num_communities, coarse.num_communities);
  // Reported value is Q_gamma of the final assignment.
  EXPECT_NEAR(fine.modularity, dl::modularity(g, fine.community, 3.0), 1e-9);
  EXPECT_NEAR(coarse.modularity, dl::modularity(g, coarse.community, 0.3), 1e-9);
}

TEST(Resolution, SharedRespectsGamma) {
  const auto g = make_ssca2_graph();
  dl::LouvainConfig hi;
  hi.resolution = 4.0;
  const auto fine = dl::louvain_shared(g, hi);
  const auto plain = dl::louvain_shared(g, {});
  EXPECT_GT(fine.num_communities, plain.num_communities);
}

// ---- Fault tolerance: checkpoints, crash recovery, fault sweeps ----------------

namespace {

/// A fresh (removed-if-existing) scratch directory under the system tmpdir.
std::filesystem::path fresh_dir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

TEST(Checkpoint, KilledAndResumedRunIsBitwiseIdentical) {
  // The ISSUE's acceptance bar: for EVERY phase k, kill a rank at phase k,
  // recover from the last checkpoint, and land on bit-identical communities
  // and modularity versus the uninterrupted run.
  const auto g = make_lfr_graph();
  const int p = 3;
  const auto reference = dlouvain::Plan::distributed(p).run(g);
  ASSERT_GE(reference.phases, 2) << "fixture must run multiple phases";

  for (int k = 0; k < reference.phases; ++k) {
    const auto dir = fresh_dir("dl_ckpt_kill_at_" + std::to_string(k));
    const auto result = dlouvain::Plan::distributed(p)
                            .checkpointing(dir.string())
                            .inject_faults(dc::FaultPlan().crash(1, k))
                            .max_restarts(1)
                            .run(g);
    EXPECT_EQ(result.community, reference.community) << "killed at phase " << k;
    EXPECT_EQ(result.modularity, reference.modularity) << "killed at phase " << k;
    EXPECT_EQ(result.phases, reference.phases) << "killed at phase " << k;
    EXPECT_EQ(result.recovery.attempts, 2) << "killed at phase " << k;
    // Phase 0 has no checkpoint yet (fresh restart); later kills resume from
    // the checkpoint taken at the killed phase's boundary.
    EXPECT_EQ(result.recovery.resumed_from_phase, k == 0 ? -1 : k)
        << "killed at phase " << k;
    std::filesystem::remove_all(dir);
  }
}

TEST(Checkpoint, SparseCadenceReplaysInterveningPhases) {
  const auto g = make_lfr_graph();
  const int p = 2;
  const auto reference = dlouvain::Plan::distributed(p).run(g);
  ASSERT_GE(reference.phases, 3);

  // Checkpoint every 2 phases, kill at phase 2 (a checkpoint boundary) and
  // at phase 3 (not one: recovery replays phase 2 as well).
  for (const int k : {2, 3}) {
    if (k >= reference.phases) continue;
    const auto dir = fresh_dir("dl_ckpt_sparse_" + std::to_string(k));
    const auto result = dlouvain::Plan::distributed(p)
                            .checkpointing(dir.string(), /*every=*/2)
                            .inject_faults(dc::FaultPlan().crash(0, k))
                            .max_restarts(1)
                            .run(g);
    EXPECT_EQ(result.community, reference.community) << "killed at phase " << k;
    EXPECT_EQ(result.modularity, reference.modularity) << "killed at phase " << k;
    EXPECT_EQ(result.recovery.resumed_from_phase, 2) << "killed at phase " << k;
    std::filesystem::remove_all(dir);
  }
}

TEST(Checkpoint, ResumeAtDifferentRankCount) {
  // Kill a 4-rank job with no restarts budgeted; resume the SAME checkpoint
  // directory on 2 ranks. Cross-p bitwise identity is out of scope (sweep
  // orders are partition-keyed) but the result must be a valid clustering
  // with exact bookkeeping in the reference quality band.
  const auto g = make_ssca2_graph();
  const auto reference = dlouvain::Plan::distributed(4).run(g);
  ASSERT_GE(reference.phases, 2);

  const auto dir = fresh_dir("dl_ckpt_rescale");
  EXPECT_THROW((void)dlouvain::Plan::distributed(4)
                   .checkpointing(dir.string())
                   .inject_faults(dc::FaultPlan().crash(2, 1))
                   .run(g),
               dc::RankCrashed);

  const auto resumed = dlouvain::Plan::distributed(2).resume(dir.string()).run(g);
  EXPECT_EQ(resumed.recovery.resumed_from_phase, 1);
  EXPECT_NEAR(resumed.modularity, dl::modularity(g, resumed.community), 1e-9);
  EXPECT_GT(resumed.modularity, reference.modularity - 0.05);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ConfigMismatchIsRejected) {
  const auto g = make_banded_graph();
  const auto dir = fresh_dir("dl_ckpt_mismatch");
  const auto first =
      dlouvain::Plan::distributed(2).checkpointing(dir.string()).run(g);
  ASSERT_GE(first.phases, 2) << "no checkpoint was ever written";

  // Same directory, different seed: resuming would silently mix two
  // incompatible trajectories, so it must refuse loudly.
  EXPECT_THROW(
      (void)dlouvain::Plan::distributed(2).seed(1234).resume(dir.string()).run(g),
      std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, FingerprintIsStableAcrossVersions) {
  // Checkpoint directories on disk, and the service's result-cache key, are
  // keyed on this hash: changing it for an existing config would make every
  // checkpoint written under that config unloadable. The literals are the
  // values the code has computed since the fingerprint was introduced.
  EXPECT_EQ(core::config_fingerprint(core::DistConfig{}), 0xe8638dc3db6ae6a5ULL);
  auto etc = core::DistConfig::etc(0.25);
  etc.use_coloring = true;
  etc.add_threshold_cycling = true;
  EXPECT_EQ(core::config_fingerprint(etc), 0x9c8b58202a5a6439ULL);
}

TEST(Checkpoint, CorruptCheckpointFallsBackToFreshStart) {
  const auto g = make_banded_graph();
  const auto reference = dlouvain::Plan::distributed(2).run(g);
  const auto dir = fresh_dir("dl_ckpt_corrupt");
  (void)dlouvain::Plan::distributed(2).checkpointing(dir.string()).run(g);
  const auto latest = core::checkpoint_latest(dir.string());
  ASSERT_TRUE(latest.has_value());

  // Flip one byte in the committed state record: the CRC must reject it and
  // the resume must degrade to a fresh (still-correct) run.
  const auto state_path =
      dir / ("phase_" + std::to_string(latest->next_phase)) / "state.bin";
  {
    std::fstream f(state_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    char byte = 0;
    f.seekg(12);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(12);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(core::checkpoint_latest(dir.string()).has_value());

  const auto resumed = dlouvain::Plan::distributed(2).resume(dir.string()).run(g);
  EXPECT_EQ(resumed.recovery.resumed_from_phase, -1);  // fresh start
  EXPECT_EQ(resumed.community, reference.community);
  EXPECT_EQ(resumed.modularity, reference.modularity);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, MalformedStateRecordIsSkipped) {
  // A record whose CRC checks out but whose contents do not -- a vertex
  // count its length disagrees with, a version this build does not write,
  // or a chain id the coarse graph has no vertex for -- is skipped like a
  // corrupt one: the peek finds nothing, and a resume starts fresh instead
  // of failing inside the load.
  const auto g = make_banded_graph();
  const auto reference = dlouvain::Plan::distributed(2).run(g);
  enum class Patch { kCount, kVersion, kChainId };
  for (const Patch patch : {Patch::kCount, Patch::kVersion, Patch::kChainId}) {
    SCOPED_TRACE(static_cast<int>(patch));
    const auto dir = fresh_dir("dl_ckpt_malformed");
    (void)dlouvain::Plan::distributed(2).checkpointing(dir.string()).run(g);
    const auto latest = core::checkpoint_latest(dir.string());
    ASSERT_TRUE(latest.has_value());
    const auto phase = dir / ("phase_" + std::to_string(latest->next_phase));
    const auto coarse = dg::read_binary_header((phase / "graph.dlel").string());
    ASSERT_LT(coarse.num_vertices, g.num_vertices() - 1);

    const auto path = phase / "state.bin";
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    // The version word follows the u64 magic; orig_global_n precedes the
    // chain of g.num_vertices() ids, which the CRC32 seals.
    const std::size_t body = bytes.size() - sizeof(std::uint32_t);
    const std::size_t chain_at =
        body - static_cast<std::size_t>(g.num_vertices()) * sizeof(VertexId);
    const auto put = [&](std::size_t at, auto value) {
      std::memcpy(bytes.data() + at, &value, sizeof value);
    };
    switch (patch) {
      case Patch::kCount:
        put(chain_at - sizeof(VertexId), std::int64_t{1} << 40);
        break;
      case Patch::kVersion:
        put(sizeof(std::uint64_t), std::uint32_t{3});
        break;
      case Patch::kChainId:  // a valid original id, beyond the coarse graph
        put(chain_at, VertexId{g.num_vertices() - 1});
        break;
    }
    put(body, dlouvain::util::crc32(bytes.data(), body));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::optional<core::CheckpointState> peek;
    EXPECT_NO_THROW(peek = core::checkpoint_latest(dir.string()));
    EXPECT_FALSE(peek.has_value());
    const auto resumed = dlouvain::Plan::distributed(2).resume(dir.string()).run(g);
    EXPECT_EQ(resumed.recovery.resumed_from_phase, -1);  // fresh start
    EXPECT_EQ(resumed.community, reference.community);
    std::filesystem::remove_all(dir);
  }
}

TEST(Checkpoint, FreshRunNeverResumesAnotherJobsCheckpoint) {
  // Job A leaves a late-phase checkpoint behind. Job B, a different graph
  // under the same config, checkpoints fresh into the same directory and
  // crashes before its first save: its restart must start over, not resume
  // A's partition (the fingerprint does not cover the graph).
  const auto dir = fresh_dir("dl_ckpt_other_job");
  const auto a_gen = gen::planted_partition(240, 6, 0.30, 0.01, 11);
  const auto a = dg::from_edges(a_gen.num_vertices, a_gen.edges);
  const auto b_gen = gen::planted_partition(240, 4, 0.30, 0.01, 12);
  const auto b = dg::from_edges(b_gen.num_vertices, b_gen.edges);
  (void)dlouvain::Plan::distributed(2).checkpointing(dir.string()).run(a);
  ASSERT_TRUE(core::checkpoint_latest(dir.string()).has_value());

  const auto clean = dlouvain::Plan::distributed(2).run(b);
  const auto result = dlouvain::Plan::distributed(2)
                          .checkpointing(dir.string())
                          .inject_faults(dc::FaultPlan().crash(1, 0))
                          .max_restarts(1)
                          .run(b);
  EXPECT_EQ(result.recovery.attempts, 2);
  EXPECT_EQ(result.recovery.resumed_from_phase, -1);
  EXPECT_EQ(result.community, clean.community);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.modularity),
            std::bit_cast<std::uint64_t>(clean.modularity));
  std::filesystem::remove_all(dir);
}

TEST(FaultSweep, CrashEachRankAtEachPhaseRecoversBitwise) {
  // Exhaustive small sweep: every rank x every phase, with checkpointing and
  // one restart budgeted. Each scenario must converge to the reference bits.
  const auto g = make_banded_graph();
  const int p = 3;
  const auto reference = dlouvain::Plan::distributed(p).run(g);
  ASSERT_GE(reference.phases, 2);
  const int phases_to_test = std::min(reference.phases, 3);

  for (int rank = 0; rank < p; ++rank) {
    for (int phase = 0; phase < phases_to_test; ++phase) {
      const auto dir = fresh_dir("dl_sweep_r" + std::to_string(rank) + "_ph" +
                                 std::to_string(phase));
      const auto result = dlouvain::Plan::distributed(p)
                              .checkpointing(dir.string())
                              .inject_faults(dc::FaultPlan().crash(rank, phase))
                              .max_restarts(1)
                              .run(g);
      EXPECT_EQ(result.community, reference.community)
          << "rank " << rank << " killed at phase " << phase;
      EXPECT_EQ(result.modularity, reference.modularity)
          << "rank " << rank << " killed at phase " << phase;
      EXPECT_EQ(result.recovery.attempts, 2)
          << "rank " << rank << " killed at phase " << phase;
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(FaultSweep, RestartWithoutCheckpointingStillRecovers) {
  // No checkpoint dir: recovery degrades to a full restart, which the
  // one-shot crash trigger lets succeed.
  const auto g = make_banded_graph();
  const auto reference = dlouvain::Plan::distributed(2).run(g);
  const auto result = dlouvain::Plan::distributed(2)
                          .inject_faults(dc::FaultPlan().crash(1, 1))
                          .max_restarts(1)
                          .run(g);
  EXPECT_EQ(result.community, reference.community);
  EXPECT_EQ(result.modularity, reference.modularity);
  EXPECT_EQ(result.recovery.attempts, 2);
  EXPECT_EQ(result.recovery.resumed_from_phase, -1);
}

TEST(FaultSweep, ExhaustedRestartBudgetRethrows) {
  const auto g = make_banded_graph();
  EXPECT_THROW((void)dlouvain::Plan::distributed(2)
                   .inject_faults(
                       dc::FaultPlan().crash(0, 0).crash(0, 0, 1).crash(1, 0))
                   .max_restarts(0)
                   .run(g),
               dc::RankCrashed);
}

TEST(FaultSweep, ExhaustedBudgetStillAccountsTheFinalAttempt) {
  // Regression (pre-ladder bug): when the restart budget ran out, the driver
  // threw BEFORE booking the final attempt's replayed phases and wasted
  // traffic, so a failed run's manifest under-reported its own cost. The
  // rethrow must now come after the accounting, and the manifest must still
  // be written (best-effort) so the waste is visible post-mortem.
  const auto g = make_banded_graph();
  const auto manifest =
      std::filesystem::temp_directory_path() / "dl_failed_run_manifest.json";
  std::filesystem::remove(manifest);
  EXPECT_THROW((void)dlouvain::Plan::distributed(2)
                   .inject_faults(dc::FaultPlan().crash(0, 0).crash(0, 0, 1))
                   .max_restarts(1)
                   .metrics(manifest.string())
                   .run(g),
               dc::RankCrashed);

  ASSERT_TRUE(std::filesystem::exists(manifest)) << "failed run wrote no manifest";
  std::ifstream in(manifest);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto field = [&](const std::string& name) {
    const auto pos = json.find("\"" + name + "\":");
    EXPECT_NE(pos, std::string::npos) << name << " missing in:\n" << json;
    return std::stoll(json.substr(pos + name.size() + 3));
  };
  EXPECT_EQ(field("attempts"), 2);       // both attempts counted...
  EXPECT_GT(field("wasted_messages"), 0);  // ...and both attempts' traffic
  EXPECT_GT(field("wasted_bytes"), 0);
  EXPECT_EQ(field("injected_crashes"), 2);
  // No attempt finished, yet the manifest names the engine that ran.
  EXPECT_NE(json.find("\"engine\":\"distributed\""), std::string::npos) << json;
  std::filesystem::remove(manifest);
}

TEST(RecoveryLadder, LossAndCorruptionAbsorbedWithoutRestart) {
  // Rung 1 under the full algorithm: a lossy, corrupting wire with an ARQ
  // budget must produce the clean run's exact bits in ONE attempt -- the
  // whole point of repairing at the link instead of restarting the job.
  const auto g = make_banded_graph();
  const auto reference = dlouvain::Plan::distributed(3).run(g);
  const auto noisy = dlouvain::Plan::distributed(3)
                         .retransmit(6, /*backoff_ms=*/0.2)
                         .inject_faults(dc::FaultPlan()
                                            .with_seed(9)
                                            .lose(0.01)
                                            .corrupt(0.01))
                         .run(g);
  EXPECT_EQ(noisy.community, reference.community);
  EXPECT_EQ(noisy.modularity, reference.modularity);
  EXPECT_EQ(noisy.recovery.attempts, 1);
  EXPECT_GT(noisy.recovery.injected_losses + noisy.recovery.injected_corruptions, 0);
  EXPECT_GE(noisy.recovery.retransmits, 1);
  EXPECT_GE(noisy.recovery.nacks, noisy.recovery.retransmits);
  EXPECT_EQ(noisy.recovery.escalations, 0);
  EXPECT_EQ(noisy.recovery.shrinks, 0);
  EXPECT_EQ(noisy.recovery.final_ranks, 3);
}

TEST(RecoveryLadder, RankDeathWithoutShrinkPropagates) {
  // A permanent death with shrink disabled must NOT burn the restart budget
  // retrying against dead hardware: the typed RankDead verdict surfaces on
  // the first attempt.
  const auto g = make_banded_graph();
  try {
    (void)dlouvain::Plan::distributed(2)
        .inject_faults(dc::FaultPlan().kill(0, 0))
        .max_restarts(3)
        .run(g);
    FAIL() << "expected RankDead";
  } catch (const dc::RankDead& e) {
    EXPECT_EQ(e.rank, 0);
  }
}

TEST(RecoveryLadder, ShrinkToSurvivorsMatchesCleanResumeBitwise) {
  // Rung 3 end to end. Stage one run to leave a phase-1 checkpoint, resume
  // it cleanly at p-1 ranks (the reference trajectory); then run the ladder
  // path -- permanent kill at phase 1, shrink enabled -- and require the
  // SAME bits: a shrink resume is exactly a clean p-1 resume.
  const auto g = make_lfr_graph();
  const int p = 3;

  const auto setup = fresh_dir("dl_shrink_setup");
  EXPECT_THROW((void)dlouvain::Plan::distributed(p)
                   .checkpointing(setup.string())
                   .inject_faults(dc::FaultPlan().crash(1, 1))
                   .max_restarts(0)
                   .run(g),
               dc::RankCrashed);
  const auto reference =
      dlouvain::Plan::distributed(p - 1).resume(setup.string()).run(g);
  EXPECT_EQ(reference.recovery.resumed_from_phase, 1);

  const auto dir = fresh_dir("dl_shrink_auto");
  const auto result = dlouvain::Plan::distributed(p)
                          .checkpointing(dir.string())
                          .inject_faults(dc::FaultPlan().kill(1, 1))
                          .shrink_on_rank_loss()
                          .max_restarts(2)
                          .run(g);
  EXPECT_EQ(result.community, reference.community);
  EXPECT_EQ(result.modularity, reference.modularity);
  EXPECT_EQ(result.recovery.attempts, 2);
  EXPECT_EQ(result.recovery.verdicts_dead, 1);
  EXPECT_EQ(result.recovery.shrinks, 1);
  EXPECT_EQ(result.recovery.final_ranks, p - 1);
  EXPECT_EQ(result.recovery.resumed_from_phase, 1);
  std::filesystem::remove_all(setup);
  std::filesystem::remove_all(dir);
}

TEST(FaultSweep, LouvainSurvivesMessageDuplicationAndDelay) {
  // Full algorithm under a noisy wire: every result bit must match the
  // clean run (duplicates absorbed by seq numbers, delays by FIFO waits).
  const auto g = make_banded_graph();
  const auto reference = dlouvain::Plan::distributed(3).run(g);
  const auto noisy = dlouvain::Plan::distributed(3)
                         .inject_faults(dc::FaultPlan()
                                            .with_seed(5)
                                            .duplicate(0.05)
                                            .delay(0.02, 0.5))
                         .run(g);
  EXPECT_EQ(noisy.community, reference.community);
  EXPECT_EQ(noisy.modularity, reference.modularity);
}

// ---- Hardened binary I/O -------------------------------------------------------

TEST(BinaryIo, RejectsOutOfRangeEndpoints) {
  const auto path = std::filesystem::temp_directory_path() / "dl_bad_endpoint.dlel";
  // Declare 4 vertices but smuggle in an edge to vertex 9 -- the payload
  // that used to drive an out-of-bounds write through the degree counters.
  dg::write_binary(path.string(), 10, {{0, 9, 1.0}, {1, 2, 1.0}});
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const std::int64_t n = 4;
    f.write(reinterpret_cast<const char*>(&n), 8);
  }
  // The header edit invalidates the CRC too; check the record validator
  // alone by probing the slice reader (header still parses: n=4, m=2).
  EXPECT_THROW((void)dg::read_binary_slice(path.string(), 0, 2), std::runtime_error);
  EXPECT_FALSE(dg::verify_binary_crc(path.string()));
  std::filesystem::remove(path);
}

TEST(BinaryIo, RejectsNonFiniteAndNegativeWeights) {
  const auto path = std::filesystem::temp_directory_path() / "dl_bad_weight.dlel";
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), -1.0}) {
    dg::write_binary(path.string(), 4, {{0, 1, w}});
    EXPECT_THROW((void)dg::read_binary_slice(path.string(), 0, 1), std::runtime_error)
        << "weight " << w;
  }
  std::filesystem::remove(path);
}

TEST(BinaryIo, CrcFooterDetectsBitRot) {
  const auto path = std::filesystem::temp_directory_path() / "dl_bitrot.dlel";
  dg::write_binary(path.string(), 6, {{0, 1, 1.0}, {2, 3, 1.0}, {4, 5, 1.0}});
  EXPECT_TRUE(dg::verify_binary_crc(path.string()));

  // Flip one bit in the middle of a record: header still parses, size still
  // matches, but the CRC must catch it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(40);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(40);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(dg::verify_binary_crc(path.string()));
  EXPECT_THROW(dc::run(2,
                       [&](dc::Comm& comm) {
                         (void)dg::load_distributed(comm, path.string());
                       }),
               std::runtime_error);
  std::filesystem::remove(path);
}

TEST(BinaryIo, VersionOneFilesAreRejected) {
  // Only DLEL0002 is read. Hand-write a v1 file (no footer): header + records
  // with the old magic. Every reader refuses it, and a collective load fails
  // on every rank.
  const auto path = std::filesystem::temp_directory_path() / "dl_v1.dlel";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    const std::uint64_t magic = 0x444c454c30303031ULL;  // "DLEL0001"
    const std::int64_t n = 3, m = 2;
    f.write(reinterpret_cast<const char*>(&magic), 8);
    f.write(reinterpret_cast<const char*>(&n), 8);
    f.write(reinterpret_cast<const char*>(&m), 8);
    const struct { std::int64_t s, d; double w; } recs[2] = {{0, 1, 1.0}, {1, 2, 2.0}};
    f.write(reinterpret_cast<const char*>(recs), sizeof recs);
  }
  EXPECT_THROW((void)dg::read_binary_header(path.string()), std::runtime_error);
  EXPECT_THROW((void)dg::verify_binary_crc(path.string()), std::runtime_error);
  EXPECT_THROW((void)dg::read_binary_slice(path.string(), 0, 2), std::runtime_error);
  EXPECT_THROW(dc::run(2,
                       [&](dc::Comm& comm) {
                         (void)dg::load_distributed(comm, path.string());
                       }),
               std::runtime_error);
  std::filesystem::remove(path);
}

TEST(BinaryIo, WriteDistributedSealsAVerifiableFile) {
  const auto path = std::filesystem::temp_directory_path() / "dl_dist_sealed.dlel";
  const auto g = make_banded_graph();
  dc::run(3, [&](dc::Comm& comm) {
    auto dist = dg::DistGraph::from_replicated(comm, g);
    dg::write_distributed(comm, dist, path.string());
  });
  EXPECT_TRUE(dg::verify_binary_crc(path.string()));
  std::filesystem::remove(path);
}
