// Trustworthy-telemetry guarantees (ISSUE 4), pinned as tests:
//
//  * tracing is an OBSERVER: enabling --trace-out changes no result bit at
//    any thread count, and the PR3 golden constants hold with tracing on;
//  * counter totals are wire-mode independent where the algorithm is
//    (messages), and the named-counter catalog is internally consistent
//    (whole-job totals == restored + executed, ghost bytes split by mode);
//  * the run manifest (Result::to_json) is valid, stable and deterministic;
//  * satellite 1: a crashed-and-restarted run reports the SAME algorithm
//    traffic as a clean run -- discarded attempts land in
//    recovery.wasted_messages/bytes, never in Result::messages;
//  * satellite 2: per-phase TimeBreakdowns sum to the run breakdown and
//    never exceed their phase's wall time (no double counting);
//  * one clock per stage: each breakdown bucket is exactly the sum of the
//    trace spans that feed it, on a cold run and on a warm update;
//  * load_lambda is DistGraph::arc_imbalance(), the same on every build
//    path of a graph;
//  * resumed runs report whole-job counters: the checkpoint's state.bin
//    record carries the pre-checkpoint totals across a resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/dist_louvain.hpp"
#include "core/ghost_exchange.hpp"
#include "core/metrics.hpp"
#include "dlouvain.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "gen/surrogate.hpp"
#include "graph/binary_io.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace {

using namespace dlouvain;
namespace dc = dlouvain::comm;

graph::Csr rmat10() {
  gen::RmatParams p;
  p.scale = 10;
  p.edges_per_vertex = 8;
  p.seed = 42;
  const auto g = gen::rmat(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

graph::Csr rmat8() {
  gen::RmatParams p;
  p.scale = 8;
  p.edges_per_vertex = 8;
  p.seed = 42;
  const auto g = gen::rmat(p);
  return graph::from_edges(g.num_vertices, g.edges);
}

std::filesystem::path fresh_dir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::filesystem::path scratch_file(const std::string& name) {
  auto path = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove(path);
  return path;
}

std::uint32_t crc_of(const std::vector<CommunityId>& v) {
  return util::crc32(v.data(), v.size() * sizeof(CommunityId));
}

std::int64_t counter(const Result& r, util::Counter c) {
  return r.distributed->counters[c];
}

// ---- tracing is a pure observer ---------------------------------------------

TEST(Tracing, TraceOnIsBitwiseIdenticalAcrossThreadCounts) {
  const auto g = rmat10();
  for (const int threads : {1, 4, 16}) {
    const auto plain = Plan::distributed(4).threads(threads).seed(123).run(g);
    const auto traced_path =
        scratch_file("dl_trace_t" + std::to_string(threads) + ".json");
    const auto traced = Plan::distributed(4)
                            .threads(threads)
                            .seed(123)
                            .trace(traced_path.string())
                            .run(g);
    const auto label = "threads " + std::to_string(threads);
    EXPECT_EQ(traced.community, plain.community) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(traced.modularity),
              std::bit_cast<std::uint64_t>(plain.modularity))
        << label;
    EXPECT_EQ(traced.distributed->messages, plain.distributed->messages) << label;
    EXPECT_EQ(traced.distributed->bytes, plain.distributed->bytes) << label;
    // The full named-counter vector must match too (busy_seconds is wall
    // clock and legitimately differs).
    EXPECT_EQ(traced.distributed->counters.values, plain.distributed->counters.values)
        << label;
    EXPECT_TRUE(std::filesystem::exists(traced_path)) << label;
    std::filesystem::remove(traced_path);
  }
}

TEST(Tracing, GoldenConstantsHoldWithTracingEnabled) {
  // Same golden bits test_hotpath pins for the untraced dist p4 run
  // (re-baselined for the ISSUE 5 interior-first schedule).
  const auto g = rmat10();
  const auto path = scratch_file("dl_trace_golden.json");
  const auto r =
      Plan::distributed(4).threads(1).seed(123).trace(path.string()).run(g);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.modularity), 0x3fc41f2c83fa1be6ULL);
  EXPECT_EQ(crc_of(r.community), 0xa7beaffcu);
  EXPECT_EQ(r.num_communities, 223);
  EXPECT_EQ(r.phases, 5);
  EXPECT_EQ(r.total_iterations, 22);
  std::filesystem::remove(path);
}

TEST(Tracing, RebuildSpanHoldsItsStepsAndNotTheLoadSampling) {
  // The rebuild span times what breakdown.rebuild times: the Fig. 1 steps
  // and the chain update, each under its own child span. It ends its
  // phase: no span of the phase starts after it, because load_lambda comes
  // from the arc counts the graph build gathers and needs no sampling
  // round. The last phase's coarse graph is never read, so its rebuild
  // renumbers and updates the chain but neither coalesces nor ships.
  constexpr int kRanks = 4;
  auto store = std::make_shared<util::TraceStore>(kRanks);
  dc::RunOptions options;
  options.trace = store;
  const auto result = core::dist_louvain_inprocess(
      kRanks, rmat10(), {}, graph::PartitionKind::kEvenEdges, options);
  ASSERT_GT(result.phases, 1);
  const auto inside = [](const util::TraceEvent& e, const util::TraceEvent& outer) {
    return e.ts_us >= outer.ts_us && e.ts_us + e.dur_us <= outer.ts_us + outer.dur_us;
  };
  for (int r = 0; r < kRanks; ++r) {
    const auto events = store->buffer(r)->drain();
    std::vector<util::TraceEvent> rebuilds;
    for (const auto& e : events)
      if (std::string_view(e.name) == "rebuild") rebuilds.push_back(e);
    ASSERT_EQ(static_cast<int>(rebuilds.size()), result.phases) << "rank " << r;
    for (const auto& b : rebuilds) {
      for (const auto& e : events)
        EXPECT_FALSE(e.phase == b.phase && e.ts_us > b.ts_us + b.dur_us)
            << "rank " << r << ": " << e.name << " starts after phase " << b.phase
            << "'s rebuild span";
    }
    for (const auto& b : rebuilds) {
      const bool last = b.phase == result.phases - 1;
      for (const std::string_view step :
           {"rebuild_renumber", "rebuild_resolve", "rebuild_coalesce", "rebuild_ship",
            "rebuild_chain"}) {
        const bool builds = step == "rebuild_coalesce" || step == "rebuild_ship";
        int held = 0;
        for (const auto& e : events) {
          if (std::string_view(e.name) == step && e.phase == b.phase && inside(e, b))
            ++held;
        }
        EXPECT_EQ(held, builds && last ? 0 : 1)
            << "rank " << r << " phase " << b.phase << ": " << step;
      }
    }
  }
}

// ---- counter catalog consistency --------------------------------------------

TEST(Counters, MessagesMatchAcrossWireModes) {
  // The wire format changes BYTES, never message counts: a round in which
  // every value changed (shipped dense) sends exactly as many messages as
  // rounds in which one value or none changed (shipped as deltas), on
  // either topology.
  const auto g = rmat10();
  for (const bool sparse : {true, false}) {
    comm::run(4, [&](comm::Comm& comm) {
      const auto dist = graph::DistGraph::from_replicated(comm, g);
      core::GhostField<std::int64_t> field(dist, -1);
      std::vector<std::int64_t> owned(static_cast<std::size_t>(dist.local_count()));
      for (VertexId lv = 0; lv < dist.local_count(); ++lv)
        owned[static_cast<std::size_t>(lv)] = dist.to_global(lv);
      util::CounterBlock& ctr = comm.counters();
      const auto round = [&] {
        const std::array<util::Counter, 4> tracked{
            util::Counter::kMessages, util::Counter::kBytes,
            util::Counter::kGhostBytesDense, util::Counter::kGhostBytesDelta};
        std::array<std::int64_t, 4> before{};
        for (std::size_t k = 0; k < tracked.size(); ++k) before[k] = ctr[tracked[k]];
        field.exchange(comm, owned, sparse);
        for (std::size_t k = 0; k < tracked.size(); ++k)
          before[k] = ctr[tracked[k]] - before[k];
        return before;  // messages, bytes, dense bytes, delta bytes
      };
      const auto dense = round();  // everything differs from the fill
      const auto none = round();   // nothing moved
      owned[0] += 1'000'000;
      const auto one = round();    // one owned value moved
      EXPECT_GT(dense[2], 0) << "sparse " << sparse;
      EXPECT_EQ(none[2], 0) << "sparse " << sparse;
      EXPECT_GT(none[3], 0) << "sparse " << sparse;
      EXPECT_EQ(none[0], dense[0]) << "sparse " << sparse;
      EXPECT_EQ(one[0], dense[0]) << "sparse " << sparse;
      EXPECT_LT(none[1], dense[1]) << "sparse " << sparse;
    });
  }

  // A fresh run's whole-job totals equal its executed-portion counters, and
  // ghost traffic -- both formats of it -- is a subset of all of it.
  const auto r = Plan::distributed(4).threads(1).seed(123).run(g);
  EXPECT_EQ(r.distributed->restored.messages, 0);
  EXPECT_EQ(r.distributed->messages, counter(r, util::Counter::kMessages));
  EXPECT_EQ(r.distributed->bytes, counter(r, util::Counter::kBytes));
  EXPECT_GT(counter(r, util::Counter::kGhostRecordsShipped), 0);
  EXPECT_GT(counter(r, util::Counter::kGhostBytesDense), 0);
  EXPECT_GT(counter(r, util::Counter::kGhostBytesDelta), 0);
  EXPECT_LE(counter(r, util::Counter::kGhostBytesDense) +
                counter(r, util::Counter::kGhostBytesDelta),
            r.distributed->bytes);
}

TEST(Counters, CheckpointTrafficIsReclassifiedNotCounted) {
  // Runs with and without checkpointing report the SAME algorithm traffic;
  // checkpoint I/O shows up only under the checkpoint.* counters. This is
  // the PERFORMANCE.md fix: `bytes` never covered checkpoint I/O, now the
  // manifest says where it went.
  const auto g = rmat8();
  const auto plain = Plan::distributed(2).threads(1).seed(123).run(g);
  const auto dir = fresh_dir("dl_ctr_ckpt");
  const auto ckpt = Plan::distributed(2)
                        .threads(1)
                        .seed(123)
                        .checkpointing(dir.string(), 1)
                        .run(g);
  EXPECT_EQ(ckpt.distributed->messages, plain.distributed->messages);
  EXPECT_EQ(ckpt.distributed->bytes, plain.distributed->bytes);
  EXPECT_GT(counter(ckpt, util::Counter::kCheckpointMessages), 0);
  EXPECT_GT(counter(ckpt, util::Counter::kCheckpointBytes), 0);
  EXPECT_GT(counter(ckpt, util::Counter::kCheckpointFileBytes), 0);
  EXPECT_EQ(counter(plain, util::Counter::kCheckpointMessages), 0);
  EXPECT_EQ(counter(plain, util::Counter::kCheckpointFileBytes), 0);
  std::filesystem::remove_all(dir);
}

// ---- satellite 2: per-phase breakdown sums ----------------------------------

TEST(Breakdown, PhaseBreakdownsSumToRunBreakdownAndFitTheirPhase) {
  // Regression for the double-counting bug: un-cleared timers folded phases
  // 0..N-1 into phase N's breakdown, so phase breakdowns (a) summed to far
  // more than the run breakdown and (b) exceeded their own phase's wall
  // time. Both are now pinned.
  const auto r = Plan::distributed(4).threads(2).seed(123).run(rmat10());
  const auto& d = *r.distributed;
  ASSERT_GE(d.phases, 2);

  core::TimeBreakdown sum;
  for (const auto& ph : d.phase_telemetry) sum += ph.breakdown;
  const double tol = 1e-9 + 1e-6 * d.breakdown.total();
  EXPECT_NEAR(sum.ghost_exchange, d.breakdown.ghost_exchange, tol);
  EXPECT_NEAR(sum.community_info, d.breakdown.community_info, tol);
  EXPECT_NEAR(sum.compute, d.breakdown.compute, tol);
  EXPECT_NEAR(sum.delta_exchange, d.breakdown.delta_exchange, tol);
  EXPECT_NEAR(sum.allreduce, d.breakdown.allreduce, tol);
  EXPECT_NEAR(sum.rebuild, d.breakdown.rebuild, tol);
  EXPECT_NEAR(sum.compute_busy, d.breakdown.compute_busy, tol);

  // Every timed section lives inside its phase's wall clock; a breakdown
  // exceeding the phase duration can only come from double counting.
  for (const auto& ph : d.phase_telemetry) {
    EXPECT_LE(ph.breakdown.total(), ph.seconds + 0.05)
        << "phase " << ph.phase << " breakdown exceeds its wall time";
  }
  EXPECT_LE(d.breakdown.total(), d.seconds + 0.25);
}

TEST(Breakdown, ComputeBusyIsCountedAtOneThread) {
  // A one-thread pool runs the sweep inline on the rank thread; that time
  // still counts as the pool's busy time, and never exceeds the compute wall
  // that brackets it.
  const auto r = Plan::distributed(4).threads(1).seed(123).run(rmat10());
  ASSERT_TRUE(r.distributed.has_value());
  const auto& b = r.distributed->breakdown;
  EXPECT_GT(b.compute_busy, 0.0);
  EXPECT_LE(b.compute_busy, b.compute);
  EXPECT_GT(r.distributed->counters.busy_seconds, 0.0);
}

/// One complete ("X") event of a Chrome trace written by util::TraceStore.
struct TracedSpan {
  std::string name;
  int pid;
  int phase;
  double dur_us;
};

/// The complete events of the trace at `path`, in the order written
/// (per rank, oldest first).
std::vector<TracedSpan> read_spans(const std::filesystem::path& path) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<TracedSpan> spans;
  for (auto ph = text.find("\"ph\":\"X\""); ph != std::string::npos;
       ph = text.find("\"ph\":\"X\"", ph + 1)) {
    const auto name = text.rfind("{\"name\":\"", ph) + 9;
    const auto field = [&](std::string_view key) {
      return std::strtod(text.c_str() + text.find(key, ph) + key.size(), nullptr);
    };
    spans.push_back({text.substr(name, text.find('"', name) - name),
                     static_cast<int>(field("\"pid\":")),
                     static_cast<int>(field("\"phase\":")), field("\"dur\":")});
  }
  return spans;
}

/// The breakdown bucket each engine span feeds (docs/OBSERVABILITY.md);
/// null for spans that feed none.
double* bucket_of(core::TimeBreakdown& b, std::string_view span) {
  for (const std::string_view s : {"ghost_exchange", "ghost_wait", "warm_ghost"})
    if (span == s) return &b.ghost_exchange;
  for (const std::string_view s : {"community_info", "warm_refresh"})
    if (span == s) return &b.community_info;
  for (const std::string_view s : {"overlap_interior", "compute"})
    if (span == s) return &b.compute;
  for (const std::string_view s : {"delta_exchange", "delta_wait", "warm_adopt"})
    if (span == s) return &b.delta_exchange;
  for (const std::string_view s : {"overlap_delta", "allreduce", "warm_modularity"})
    if (span == s) return &b.allreduce;
  if (span == "rebuild") return &b.rebuild;
  return nullptr;
}

/// Rank 0's spans of one dist_louvain run, summed per phase into the
/// buckets they feed, must reproduce that run's per-phase breakdown.
void expect_buckets_sum_their_spans(const std::vector<TracedSpan>& spans,
                                    const core::DistResult& d, const std::string& label) {
  std::vector<core::TimeBreakdown> summed(d.phase_telemetry.size());
  for (const auto& s : spans) {
    if (s.pid != 0 || s.phase < 0) continue;
    ASSERT_LT(static_cast<std::size_t>(s.phase), summed.size())
        << label << ": " << s.name;
    if (double* b = bucket_of(summed[static_cast<std::size_t>(s.phase)], s.name))
      *b += s.dur_us * 1e-6;
  }
  for (const auto& ph : d.phase_telemetry) {
    const auto& got = summed[static_cast<std::size_t>(ph.phase)];
    const auto& want = ph.breakdown;
    const auto where = label + " phase " + std::to_string(ph.phase);
    EXPECT_NEAR(got.ghost_exchange, want.ghost_exchange, 1e-9) << where;
    EXPECT_NEAR(got.community_info, want.community_info, 1e-9) << where;
    EXPECT_NEAR(got.compute, want.compute, 1e-9) << where;
    EXPECT_NEAR(got.delta_exchange, want.delta_exchange, 1e-9) << where;
    EXPECT_NEAR(got.allreduce, want.allreduce, 1e-9) << where;
    EXPECT_NEAR(got.rebuild, want.rebuild, 1e-9) << where;
  }
}

TEST(Breakdown, EachBucketIsTheSumOfItsSpans) {
  // One clock per stage: every bucket of a phase's breakdown is the sum of
  // the spans that feed it -- the same two time points per span -- on a
  // cold run and on a warm update, whose phase 0 adds the warm_* spans.
  const auto cold_path = scratch_file("dl_bucket_cold.json");
  const auto cold =
      Plan::distributed(4).threads(1).seed(123).trace(cold_path.string()).run(rmat10());
  ASSERT_GE(cold.phases, 2);
  expect_buckets_sum_their_spans(read_spans(cold_path), *cold.distributed, "cold run");

  const auto warm_path = scratch_file("dl_bucket_warm.json");
  auto session =
      Plan::distributed(2).threads(1).seed(123).trace(warm_path.string()).open(rmat8());
  std::size_t initial = 0;
  for (const auto& s : read_spans(warm_path)) initial += s.pid == 0 ? 1 : 0;
  const auto stats = session.update(EdgeBatch().add(0, 200, 1.0).add(3, 150, 2.0));
  ASSERT_FALSE(stats.fell_back_to_full);
  // Rank 0's spans after the initial run's are the update's.
  std::vector<TracedSpan> update_spans;
  std::size_t seen = 0;
  for (const auto& s : read_spans(warm_path))
    if (s.pid == 0 && ++seen > initial) update_spans.push_back(s);
  EXPECT_TRUE(std::any_of(
      update_spans.begin(), update_spans.end(),
      [](const TracedSpan& s) { return s.name == "warm_modularity"; }));
  expect_buckets_sum_their_spans(update_spans, *session.result().distributed, "update");
  std::filesystem::remove(cold_path);
  std::filesystem::remove(warm_path);
}

// ---- satellite 1: restart traffic is wasted, not leaked ---------------------

TEST(Recovery, CrashedRunReportsCleanTrafficPlusWaste) {
  // Both plans pin the kEvenVertices original partition: a resume re-slices
  // the original-vertex bookkeeping (orig_to_cur) under kEvenVertices, so
  // only with a matching original partition are the self/remote payload
  // splits -- and therefore BYTE counts -- identical to the clean run.
  // (Message counts and results are partition-independent either way.)
  const auto g = rmat8();
  const auto clean_dir = fresh_dir("dl_waste_clean");
  const auto clean = Plan::distributed(2)
                         .threads(1)
                         .seed(123)
                         .partition(graph::PartitionKind::kEvenVertices)
                         .checkpointing(clean_dir.string(), 1)
                         .run(g);
  ASSERT_GE(clean.phases, 2) << "fixture must run multiple phases";
  EXPECT_EQ(clean.recovery.attempts, 1);
  EXPECT_EQ(clean.recovery.wasted_messages, 0);
  EXPECT_EQ(clean.recovery.wasted_bytes, 0);

  const auto crash_dir = fresh_dir("dl_waste_crash");
  const auto crashed = Plan::distributed(2)
                           .threads(1)
                           .seed(123)
                           .partition(graph::PartitionKind::kEvenVertices)
                           .checkpointing(crash_dir.string(), 1)
                           .inject_faults(dc::FaultPlan().crash(1, 1))
                           .max_restarts(2)
                           .run(g);
  EXPECT_GT(crashed.recovery.attempts, 1);
  EXPECT_EQ(crashed.community, clean.community);

  // The leak this fixes: the completed run reports exactly the clean run's
  // traffic -- whole-job totals restored from the checkpoint plus what the
  // surviving attempt executed, nothing from the discarded attempt.
  EXPECT_EQ(crashed.distributed->messages, clean.distributed->messages);
  EXPECT_EQ(crashed.distributed->bytes, clean.distributed->bytes);
  EXPECT_EQ(crashed.distributed->messages,
            crashed.distributed->restored.messages +
                counter(crashed, util::Counter::kMessages));

  // The discarded attempt's traffic is reported, separately.
  EXPECT_GT(crashed.recovery.wasted_messages, 0);
  EXPECT_GT(crashed.recovery.wasted_bytes, 0);
  EXPECT_GT(crashed.recovery.injected_crashes, 0);

  std::filesystem::remove_all(clean_dir);
  std::filesystem::remove_all(crash_dir);
}

// ---- satellite 3: counters across checkpoint/resume -------------------------

TEST(Resume, WholeJobTotalsAreSelfConsistentAfterResume) {
  const auto g = rmat8();
  const auto dir = fresh_dir("dl_resume_ctr");
  const auto first = Plan::distributed(2)
                         .threads(1)
                         .seed(123)
                         .checkpointing(dir.string(), 1)
                         .run(g);
  ASSERT_GE(first.phases, 2);

  const auto latest = core::checkpoint_latest(dir.string());
  ASSERT_TRUE(latest.has_value()) << "no checkpoint was written";
  const core::RunCounters& banked = latest->counters;
  EXPECT_GT(banked.messages, 0);
  EXPECT_GT(banked.seconds, 0);
  EXPECT_LE(banked.messages, first.distributed->messages);

  const auto resumed =
      Plan::distributed(2).threads(1).seed(123).resume(dir.string()).run(g);
  ASSERT_GE(resumed.distributed->resumed_from_phase, 0);
  EXPECT_EQ(resumed.distributed->restored.messages, banked.messages);
  EXPECT_EQ(resumed.distributed->restored.bytes, banked.bytes);
  // The satellite-3 rule: reported totals are whole-job = restored +
  // executed, mirroring what phases/total_iterations always did.
  EXPECT_EQ(resumed.distributed->messages,
            resumed.distributed->restored.messages +
                counter(resumed, util::Counter::kMessages));
  EXPECT_EQ(resumed.distributed->bytes,
            resumed.distributed->restored.bytes +
                counter(resumed, util::Counter::kBytes));
  EXPECT_GE(resumed.distributed->seconds, resumed.distributed->restored.seconds);
  std::filesystem::remove_all(dir);
}

// ---- the run manifest -------------------------------------------------------

/// Minimal structural JSON check: balanced braces/brackets outside strings.
void expect_balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Manifest, ToJsonIsValidStableAndDeterministic) {
  const auto g = rmat8();
  const auto r = Plan::distributed(2).threads(1).seed(123).run(g);
  const auto json = r.to_json();
  expect_balanced_json(json);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"schema\":\"dlouvain-run-manifest/8\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"distributed\""), std::string::npos);
  EXPECT_NE(json.find("\"updates\":{\"batches_applied\":0"), std::string::npos);
  EXPECT_NE(json.find("\"comm.messages\":"), std::string::npos);
  EXPECT_NE(json.find("\"recovery\":{"), std::string::npos);
  EXPECT_NE(json.find("\"phases_detail\":["), std::string::npos);

  // Same Result -> same string (round-trip stability)...
  EXPECT_EQ(r.to_json(), json);
  // ...and a re-run differs only in wall-clock fields: the deterministic
  // counter section must be byte-identical.
  const auto again = Plan::distributed(2).threads(1).seed(123).run(g);
  const auto extract_counters = [](const std::string& j) {
    const auto from = j.find("\"counters\":");
    const auto to = j.find("\"pool.busy_seconds\"", from);
    return j.substr(from, to - from);
  };
  EXPECT_EQ(extract_counters(again.to_json()), extract_counters(json));
}

TEST(Manifest, PhasesDetailCarriesLoadLambdasAndDiscardedFlag) {
  const auto sg = gen::surrogate("channel", 0.3);
  const auto g = graph::from_edges(sg.num_vertices, sg.edges);
  const auto r = Plan::distributed(4).seed(123).run(g);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"load_lambda\":"), std::string::npos);
  EXPECT_NE(json.find("\"discarded\":"), std::string::npos);
  for (const auto& ph : r.distributed->phase_telemetry) EXPECT_GE(ph.load_lambda, 1.0);
}

TEST(Manifest, MetricsOutWritesTheManifestToDisk) {
  const auto g = rmat8();
  const auto path = scratch_file("dl_manifest_out.json");
  const auto r =
      Plan::distributed(2).threads(1).seed(123).metrics(path.string()).run(g);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string on_disk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, r.to_json() + "\n");
  std::filesystem::remove(path);
}

// ---- util-level unit tests --------------------------------------------------

TEST(TraceBuffer, RingOverwritesOldestAndCountsDrops) {
  const auto epoch = util::TraceBuffer::Clock::now();
  util::TraceBuffer buf(0, epoch, 4);
  for (int i = 0; i < 7; ++i) {
    const auto t = epoch + std::chrono::microseconds(i);
    buf.record("ev", "cat", t, t + std::chrono::microseconds(1), i, -1);
  }
  const auto events = buf.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(buf.dropped(), 3);
  // Oldest-first, and the three oldest are the ones evicted.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].phase, static_cast<int>(i) + 3);
  }
}

TEST(TraceStore, WritesChromeTraceShape) {
  util::TraceStore store(2, 16);
  {
    const util::TraceSpan span(store.buffer(0), "phase", "phase", 0);
  }
  {
    const util::TraceSpan span(store.buffer(1), "compute", "compute", 0, 1);
  }
  // Out-of-range buffers are null, and null-buffer spans are no-ops.
  EXPECT_EQ(store.buffer(2), nullptr);
  { const util::TraceSpan noop(nullptr, "x", "y"); }

  std::ostringstream out;
  store.write_chrome_trace(out);
  const auto json = out.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"compute\""), std::string::npos);
}

/// max/mean over ranks of local().num_arcs() (collective).
double gathered_arc_ratio(comm::Comm& comm, const graph::DistGraph& g) {
  const auto arcs = comm.allgather(g.local().num_arcs());
  const double max = static_cast<double>(*std::max_element(arcs.begin(), arcs.end()));
  double sum = 0;
  for (const EdgeId a : arcs) sum += static_cast<double>(a);
  return max / (sum / static_cast<double>(arcs.size()));
}

TEST(Metrics, ArcImbalanceIsMaxOverMeanOnEveryBuildPath) {
  // One graph, four build paths -- from_replicated, build, load_distributed
  // and with_edge_changes re-adding a removed edge -- on one partition.
  const auto g = rmat8();
  const VertexId u = 0;
  const auto row = g.neighbors(u);
  const auto cut_it =
      std::find_if(row.begin(), row.end(), [&](const HalfEdge& e) { return e.dst != u; });
  ASSERT_NE(cut_it, row.end());
  const HalfEdge cut = *cut_it;
  std::vector<Edge> all;
  std::vector<Edge> without_cut;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const auto& e : g.neighbors(v)) {
      if (v > e.dst) continue;
      all.push_back({v, e.dst, e.weight});
      if (!(v == u && e.dst == cut.dst)) without_cut.push_back({v, e.dst, e.weight});
    }
  }
  const auto g_cut = graph::from_edges(g.num_vertices(), without_cut);
  const auto file = scratch_file("dl_arc_imbalance.dlel");
  constexpr auto kKind = graph::PartitionKind::kEvenVertices;
  dc::run(4, [&](dc::Comm& comm) {
    const auto replicated = graph::DistGraph::from_replicated(comm, g, kKind);
    const double lambda = replicated.arc_imbalance();
    EXPECT_DOUBLE_EQ(lambda, gathered_arc_ratio(comm, replicated));
    EXPECT_GT(lambda, 1.0);

    const auto built = graph::DistGraph::build(comm, replicated.partition(), all);
    graph::write_distributed(comm, replicated, file.string());
    comm.barrier();
    const auto loaded = graph::load_distributed(comm, file.string(), kKind);
    const std::array<graph::EdgeChange, 1> readd{
        graph::EdgeChange{u, cut.dst, cut.weight, false}};
    const auto changed = graph::DistGraph::from_replicated(comm, g_cut, kKind)
                             .with_edge_changes(comm, readd);
    for (const auto* other : {&built, &loaded, &changed}) {
      EXPECT_EQ(other->partition(), replicated.partition());
      EXPECT_EQ(other->local().num_arcs(), replicated.local().num_arcs());
      EXPECT_EQ(other->arc_imbalance(), lambda);
    }
  });
  std::filesystem::remove(file);

  // A star on 4 ranks of 2 vertices: arcs 8, 2, 2, 2 -> max 8 over mean 3.5.
  std::vector<Edge> star;
  for (VertexId leaf = 1; leaf < 8; ++leaf) star.push_back({0, leaf, 1.0});
  dc::run(4, [&](dc::Comm& comm) {
    const auto dist =
        graph::DistGraph::from_replicated(comm, graph::from_edges(8, star), kKind);
    EXPECT_DOUBLE_EQ(dist.arc_imbalance(), 8.0 / 3.5);
  });
  // Balanced on one rank, and on no arcs at all.
  dc::run(1, [&](dc::Comm& comm) {
    EXPECT_EQ(graph::DistGraph::from_replicated(comm, g).arc_imbalance(), 1.0);
  });
  dc::run(3, [&](dc::Comm& comm) {
    const auto edgeless =
        graph::DistGraph::from_replicated(comm, graph::from_edges(6, {}));
    EXPECT_EQ(edgeless.arc_imbalance(), 1.0);
  });

  // A run's phase 0 reports its input slices' value as load_lambda.
  const auto r = Plan::distributed(4).threads(1).seed(123).run(g);
  double input_lambda = 0;
  dc::run(4, [&](dc::Comm& comm) {
    const auto dist = graph::DistGraph::from_replicated(comm, g);
    if (comm.rank() == 0) input_lambda = dist.arc_imbalance();
  });
  ASSERT_FALSE(r.distributed->phase_telemetry.empty());
  EXPECT_EQ(r.distributed->phase_telemetry[0].load_lambda, input_lambda);
}

TEST(Metrics, ReclassScopeMovesTrafficAndNests) {
  util::CounterBlock block;
  block[util::Counter::kMessages] = 10;
  block[util::Counter::kBytes] = 100;
  {
    const util::TrafficReclassScope outer(block, util::Counter::kCheckpointMessages,
                                          util::Counter::kCheckpointBytes);
    block[util::Counter::kMessages] += 5;
    block[util::Counter::kBytes] += 50;
    {
      const util::TrafficReclassScope inner(
          block, util::Counter::kCheckpointMessages,
          util::Counter::kCheckpointBytes);
      block[util::Counter::kMessages] += 2;
      block[util::Counter::kBytes] += 20;
    }
    // The inner scope already moved its delta; the outer sees only its own.
    EXPECT_EQ(block[util::Counter::kCheckpointMessages], 2);
  }
  EXPECT_EQ(block[util::Counter::kMessages], 10);
  EXPECT_EQ(block[util::Counter::kBytes], 100);
  EXPECT_EQ(block[util::Counter::kCheckpointMessages], 7);
  EXPECT_EQ(block[util::Counter::kCheckpointBytes], 70);
}

TEST(Metrics, RegistryRejectsNonPositiveRanks) {
  EXPECT_THROW(util::MetricsRegistry(0), std::invalid_argument);
  EXPECT_THROW(util::MetricsRegistry(-3), std::invalid_argument);
  util::MetricsRegistry reg(2);
  reg.rank(0)[util::Counter::kMessages] = 3;
  reg.rank(1)[util::Counter::kMessages] = 4;
  EXPECT_EQ(reg.total()[util::Counter::kMessages], 7);
}

}  // namespace
