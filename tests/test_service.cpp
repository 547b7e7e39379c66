// Service-layer tests (ISSUE 9): the DLSV frame codec, the JobScheduler's
// admission / LRU cache / in-flight de-duplication / drain contract, and
// the socket endpoint end to end. The headline property (satellite 4): N
// parallel identical jobs cost exactly 1 computation and produce N
// byte-identical manifests, and a drain never drops a response.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gen/simple.hpp"
#include "graph/csr.hpp"
#include "service/endpoint.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"

namespace gen = dlouvain::gen;
namespace dg = dlouvain::graph;
namespace svc = dlouvain::service;
using dlouvain::Edge;
using dlouvain::VertexId;

namespace {

svc::JobRequest karate_job(int ranks = 2, std::uint64_t seed = 7777) {
  svc::JobRequest req;
  req.config.ranks = ranks;
  req.config.seed = seed;
  const auto g = gen::karate_club();
  const auto csr = dg::from_edges(g.num_vertices, g.edges);
  req.num_vertices = csr.num_vertices();
  req.edges = svc::canonical_edges(csr);
  return req;
}

/// The reply manifest without its response-specific "service" section --
/// the bytes that must be identical across a leader and its cache hits.
std::string strip_service(const std::string& manifest) {
  const auto pos = manifest.find(",\"service\":");
  EXPECT_NE(pos, std::string::npos) << "no service section in: " << manifest;
  return manifest.substr(0, pos);
}

bool service_field_true(const std::string& manifest, const std::string& field) {
  return manifest.find("\"" + field + "\":true") != std::string::npos;
}

}  // namespace

// ---- wire format ------------------------------------------------------------

TEST(Protocol, WireRoundTrip) {
  svc::WireWriter w;
  w.put_u8(7);
  w.put_u32(0xdeadbeef);
  w.put_u64(1ull << 60);
  w.put_i32(-42);
  w.put_i64(-(1ll << 50));
  w.put_f64(0.1);
  w.put_string("hello");
  svc::WireReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 1ull << 60);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -(1ll << 50));
  EXPECT_EQ(r.get_f64(), 0.1);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Protocol, ReaderRejectsOverrunAndTrailingJunk) {
  svc::WireWriter w;
  w.put_u32(1);
  svc::WireReader r(w.bytes());
  EXPECT_THROW(r.get_u64(), svc::ProtocolError);  // only 4 bytes present
  svc::WireReader r2(w.bytes());
  EXPECT_THROW(r2.expect_end(), svc::ProtocolError);  // unconsumed bytes
}

TEST(Protocol, FrameRoundTrip) {
  const auto frame = svc::encode_frame(svc::FrameType::kManifest, std::string_view("{\"a\":1}"));
  std::size_t consumed = 0;
  const svc::Frame decoded = svc::decode_frame(frame, consumed);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded.type, svc::FrameType::kManifest);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(decoded.payload.data()),
                        decoded.payload.size()),
            "{\"a\":1}");
}

TEST(Protocol, FrameDetectsCorruption) {
  auto frame = svc::encode_frame(svc::FrameType::kSubmit, std::string_view("payload"));
  std::size_t consumed = 0;

  auto flipped = frame;
  flipped[svc::kFrameHeaderBytes] ^= std::byte{0x01};  // payload bit flip
  EXPECT_THROW(svc::decode_frame(flipped, consumed), svc::ProtocolError);

  auto bad_type = frame;
  bad_type[8] ^= std::byte{0x40};  // header (type) bit flip -- CRC covers it
  EXPECT_THROW(svc::decode_frame(bad_type, consumed), svc::ProtocolError);

  auto bad_magic = frame;
  bad_magic[0] = std::byte{0x00};
  EXPECT_THROW(svc::decode_frame(bad_magic, consumed), svc::ProtocolError);

  EXPECT_THROW(svc::decode_frame(std::span<const std::byte>(frame).first(10), consumed),
               svc::ProtocolError);
}

TEST(Protocol, FrameEnforcesMaxPayload) {
  const auto frame = svc::encode_frame(svc::FrameType::kSubmit, std::string_view("0123456789"));
  std::size_t consumed = 0;
  EXPECT_THROW(svc::decode_frame(frame, consumed, /*max_payload=*/4), svc::ProtocolError);
}

TEST(Protocol, JobRequestRoundTrip) {
  svc::JobRequest req = karate_job(3, 99);
  req.config.variant = 3;
  req.config.alpha = 0.5;
  req.config.threads = 2;
  req.session_name = "sess";
  const auto payload = svc::encode_job_request(req);
  const svc::JobRequest back = svc::decode_job_request(payload);
  EXPECT_EQ(back.config.ranks, 3);
  EXPECT_EQ(back.config.seed, 99u);
  EXPECT_EQ(back.config.variant, 3);
  EXPECT_EQ(back.config.alpha, 0.5);
  EXPECT_EQ(back.config.threads, 2);
  EXPECT_EQ(back.session_name, "sess");
  EXPECT_EQ(back.num_vertices, req.num_vertices);
  EXPECT_EQ(back.edges, req.edges);
}

TEST(Protocol, UpdateRequestRoundTrip) {
  svc::UpdateRequest req;
  req.session_name = "s1";
  req.changes.push_back(dg::EdgeChange{1, 2, 2.5, false});
  req.changes.push_back(dg::EdgeChange{3, 4, 0.0, true});
  const auto payload = svc::encode_update_request(req);
  const svc::UpdateRequest back = svc::decode_update_request(payload);
  EXPECT_EQ(back.session_name, "s1");
  EXPECT_EQ(back.changes, req.changes);
}

TEST(Protocol, HostileEdgeCountRejectedBeforeAllocation) {
  svc::JobRequest req = karate_job();
  auto payload = svc::encode_job_request(req);
  // The edge-count u64 sits right before the edge records: claim 2^56 edges.
  const std::size_t count_at = payload.size() - req.edges.size() * 24 - 8;
  const std::uint64_t huge = 1ull << 56;
  std::memcpy(payload.data() + count_at, &huge, sizeof huge);
  EXPECT_THROW(svc::decode_job_request(payload), svc::ProtocolError);
}

// ---- scheduler: cache, de-dup, admission ------------------------------------

TEST(Scheduler, ParallelIdenticalJobsComputeOnceBitwiseIdentical) {
  svc::JobScheduler sched(svc::SchedulerOptions{.workers = 2});
  constexpr int kJobs = 4;
  std::vector<std::future<svc::Reply>> futures;
  futures.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) futures.push_back(sched.submit(karate_job()));

  std::vector<std::string> bodies;
  int hits = 0;
  for (auto& f : futures) {
    svc::Reply r = f.get();
    ASSERT_EQ(r.type, svc::FrameType::kManifest) << r.body;
    if (service_field_true(r.body, "cache_hit")) ++hits;
    bodies.push_back(strip_service(r.body));
  }
  // Exactly one computation: N-1 responses are cache hits (waiters on the
  // in-flight leader or hits on the finished cache line -- both count).
  EXPECT_EQ(hits, kJobs - 1);
  for (int i = 1; i < kJobs; ++i)
    EXPECT_EQ(bodies[0], bodies[i]) << "manifests diverge at job " << i;

  const auto stats = sched.stats();
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, kJobs - 1);
  EXPECT_EQ(stats.jobs_served, kJobs);
}

TEST(Scheduler, CacheKeyHonoursConfigAndRanksButNotThreads) {
  svc::JobScheduler sched(svc::SchedulerOptions{.workers = 1});
  EXPECT_EQ(sched.submit(karate_job(2, 7777)).get().type, svc::FrameType::kManifest);

  // Different seed -> different trajectory -> miss.
  EXPECT_FALSE(service_field_true(sched.submit(karate_job(2, 1234)).get().body, "cache_hit"));
  // Different rank count -> different results -> miss.
  EXPECT_FALSE(service_field_true(sched.submit(karate_job(3, 7777)).get().body, "cache_hit"));
  // Different thread count -> SAME results (determinism contract) -> hit.
  svc::JobRequest threaded = karate_job(2, 7777);
  threaded.config.threads = 4;
  EXPECT_TRUE(service_field_true(sched.submit(threaded).get().body, "cache_hit"));
}

TEST(Scheduler, RejectsBadPlansAndBadGraphsWithErrorReplies) {
  svc::JobScheduler sched(
      svc::SchedulerOptions{.workers = 1, .max_ranks = 4, .max_edges = 1000});

  svc::JobRequest too_many_ranks = karate_job(9);
  EXPECT_EQ(sched.submit(std::move(too_many_ranks)).get().type, svc::FrameType::kError);

  svc::JobRequest bad_variant = karate_job();
  bad_variant.config.variant = 200;
  EXPECT_EQ(sched.submit(std::move(bad_variant)).get().type, svc::FrameType::kError);

  svc::JobRequest bad_plan = karate_job();
  bad_plan.config.threshold = -1.0;
  const svc::Reply plan_reply = sched.submit(std::move(bad_plan)).get();
  EXPECT_EQ(plan_reply.type, svc::FrameType::kError);
  EXPECT_NE(plan_reply.body.find("invalid plan"), std::string::npos) << plan_reply.body;

  // Out-of-range endpoint is only detectable at build time: still a reply,
  // never a crash or a dropped request.
  svc::JobRequest bad_edge = karate_job();
  bad_edge.edges.push_back(Edge{0, 10'000, 1.0});
  EXPECT_EQ(sched.submit(std::move(bad_edge)).get().type, svc::FrameType::kError);

  // The vertex count is admitted in [0, max_edges] even with no edges: it
  // sizes per-vertex arrays before any edge is read. Both entry points.
  for (const VertexId n : {VertexId{1001}, VertexId{-1}}) {
    svc::JobRequest huge;
    huge.config.ranks = 2;
    huge.num_vertices = n;
    const svc::Reply submitted = sched.submit(huge).get();
    EXPECT_EQ(submitted.type, svc::FrameType::kError) << n;
    EXPECT_NE(submitted.body.find("exceeds the service limit"), std::string::npos)
        << submitted.body;
    huge.session_name = "huge";
    EXPECT_EQ(sched.open_session(std::move(huge)).get().type, svc::FrameType::kError) << n;
  }
  svc::JobRequest at_limit = karate_job();
  at_limit.num_vertices = 1000;  // karate's edges, padded with isolated vertices
  EXPECT_EQ(sched.submit(std::move(at_limit)).get().type, svc::FrameType::kManifest);

  // The bad edge is a failed job, not a rejection.
  EXPECT_EQ(sched.stats().rejected, 3 + 4);
}

TEST(Scheduler, BoundsRanksTimesThreads) {
  // Each rank runs one thread plus threads - 1 pool workers, so the rank
  // limit also bounds ranks x threads; threads <= 0 (one per core) is out.
  svc::JobScheduler sched(svc::SchedulerOptions{.workers = 1, .max_ranks = 4});
  for (const int threads : {3, 0, -1}) {
    svc::JobRequest req = karate_job(2);
    req.config.threads = threads;
    const svc::Reply reply = sched.submit(std::move(req)).get();
    EXPECT_EQ(reply.type, svc::FrameType::kError) << threads;
    EXPECT_NE(reply.body.find("[1, 4]"), std::string::npos) << reply.body;
  }
  svc::JobRequest at_limit = karate_job(2);
  at_limit.config.threads = 2;
  EXPECT_EQ(sched.submit(std::move(at_limit)).get().type, svc::FrameType::kManifest);
}

TEST(Scheduler, DrainCompletesEveryAdmittedJobThenRefuses) {
  svc::JobScheduler sched(svc::SchedulerOptions{.workers = 2});
  std::vector<std::future<svc::Reply>> futures;
  for (int i = 0; i < 6; ++i)
    futures.push_back(sched.submit(karate_job(2, 1000 + static_cast<std::uint64_t>(i))));
  sched.drain();
  // Every job admitted before the drain still produced its reply.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().type, svc::FrameType::kManifest);
  }
  // Admission after the drain answers immediately with a draining error.
  svc::Reply refused = sched.submit(karate_job()).get();
  EXPECT_EQ(refused.type, svc::FrameType::kError);
  EXPECT_NE(refused.body.find("draining"), std::string::npos);

  const std::string manifest = sched.final_manifest();
  EXPECT_NE(manifest.find("\"schema\":\"dlouvain-service-manifest/1\""), std::string::npos);
  EXPECT_NE(manifest.find("\"drain\":\"clean\""), std::string::npos);
}

TEST(Scheduler, NamedSessionLifecycle) {
  svc::JobScheduler sched(svc::SchedulerOptions{.workers = 2});

  svc::JobRequest open = karate_job();
  open.session_name = "k";
  const svc::Reply opened = sched.open_session(open).get();
  ASSERT_EQ(opened.type, svc::FrameType::kManifest) << opened.body;
  EXPECT_NE(opened.body.find("\"sessions_open\":1"), std::string::npos);

  // Same name again: refused while resident.
  EXPECT_EQ(sched.open_session(open).get().type, svc::FrameType::kError);

  svc::UpdateRequest upd;
  upd.session_name = "k";
  upd.changes.push_back(dg::EdgeChange{0, 20, 1.0, false});
  const svc::Reply updated = sched.update_session(upd).get();
  ASSERT_EQ(updated.type, svc::FrameType::kManifest) << updated.body;
  EXPECT_NE(updated.body.find("\"batches_applied\":1"), std::string::npos);

  upd.session_name = "nope";
  EXPECT_EQ(sched.update_session(upd).get().type, svc::FrameType::kError);

  EXPECT_EQ(sched.close_session("k").get().type, svc::FrameType::kStatsReply);
  EXPECT_EQ(sched.stats().sessions_open, 0);
  // Closed name is free again.
  EXPECT_EQ(sched.open_session(open).get().type, svc::FrameType::kManifest);
}

TEST(Scheduler, UpdateQueuedBehindOpenWaitsForIt) {
  // The update is admitted while the open is still queued/running; it must
  // wait for the session to become ready, not fail or race.
  svc::JobScheduler sched(svc::SchedulerOptions{.workers = 2});
  svc::JobRequest open = karate_job();
  open.session_name = "s";
  auto open_future = sched.open_session(open);
  svc::UpdateRequest upd;
  upd.session_name = "s";
  upd.changes.push_back(dg::EdgeChange{0, 21, 1.0, false});
  auto upd_future = sched.update_session(upd);
  EXPECT_EQ(open_future.get().type, svc::FrameType::kManifest);
  EXPECT_EQ(upd_future.get().type, svc::FrameType::kManifest);
}

// ---- endpoint: the full socket path -----------------------------------------

namespace {

/// Endpoint + scheduler over a real Unix socket in the working directory
/// (relative path: sockaddr_un's 108-byte limit).
struct LiveService {
  svc::JobScheduler scheduler;
  svc::ServiceEndpoint endpoint;
  std::string path;

  explicit LiveService(const std::string& socket_name)
      : scheduler(svc::SchedulerOptions{.workers = 2}),
        endpoint(svc::EndpointOptions{.unix_path = socket_name}, scheduler),
        path(socket_name) {
    endpoint.start();
  }
};

}  // namespace

TEST(Endpoint, ConcurrentClientsOneDuplicateOneCacheHit) {
  LiveService live("svc_e2e.sock");

  // Three concurrent jobs over three connections, two of them identical --
  // the ISSUE 9 acceptance scenario, minus the process boundary (the ctest
  // service_smoke tier adds that via tools/service_smoke.py).
  const auto call = [&](svc::JobRequest req) {
    auto client = svc::ServiceClient::connect_unix(live.path);
    const auto payload = svc::encode_job_request(req);
    const svc::Frame reply = client.call(svc::FrameType::kSubmit, payload);
    return std::string(reinterpret_cast<const char*>(reply.payload.data()),
                       reply.payload.size());
  };
  std::future<std::string> a = std::async(std::launch::async, call, karate_job());
  std::future<std::string> b = std::async(std::launch::async, call, karate_job());
  std::future<std::string> c = std::async(std::launch::async, call, karate_job(3));
  const std::string ma = a.get(), mb = b.get(), mc = c.get();

  EXPECT_EQ(strip_service(ma), strip_service(mb));
  EXPECT_NE(strip_service(ma), strip_service(mc));
  for (const auto* m : {&ma, &mb, &mc})
    EXPECT_NE(m->find("\"schema\":\"dlouvain-run-manifest/8\""), std::string::npos);

  live.endpoint.stop();
  const auto stats = live.scheduler.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.jobs_served, 3);
  EXPECT_EQ(stats.drain, "clean");
}

TEST(Endpoint, SessionOverSocketAndStats) {
  LiveService live("svc_sess.sock");
  auto client = svc::ServiceClient::connect_unix(live.path);

  svc::JobRequest open = karate_job();
  open.session_name = "sock";
  svc::Frame reply = client.call(svc::FrameType::kOpenSession, svc::encode_job_request(open));
  EXPECT_EQ(reply.type, svc::FrameType::kManifest);

  svc::UpdateRequest upd;
  upd.session_name = "sock";
  upd.changes.push_back(dg::EdgeChange{0, 22, 1.0, false});
  reply = client.call(svc::FrameType::kUpdate, svc::encode_update_request(upd));
  EXPECT_EQ(reply.type, svc::FrameType::kManifest);

  reply = client.call(svc::FrameType::kStats);
  EXPECT_EQ(reply.type, svc::FrameType::kStatsReply);
  const std::string stats(reinterpret_cast<const char*>(reply.payload.data()),
                          reply.payload.size());
  EXPECT_NE(stats.find("\"sessions_open\":1"), std::string::npos) << stats;

  svc::WireWriter w;
  w.put_string("sock");
  reply = client.call(svc::FrameType::kCloseSession, std::span<const std::byte>(w.bytes()));
  EXPECT_EQ(reply.type, svc::FrameType::kStatsReply);
}

TEST(Endpoint, CorruptFrameGetsErrorReplyAndDrop) {
  LiveService live("svc_bad.sock");
  // Raw socket: ship a frame whose payload byte was flipped in transit.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, live.path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  auto frame = svc::encode_frame(svc::FrameType::kSubmit, std::string_view("junk"));
  frame[svc::kFrameHeaderBytes] ^= std::byte{0xff};
  svc::write_all(fd, frame);
  // The server answers with a best-effort kError frame, then drops us.
  const auto reply = svc::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, svc::FrameType::kError);
  const std::string body(reinterpret_cast<const char*>(reply->payload.data()),
                         reply->payload.size());
  EXPECT_NE(body.find("CRC"), std::string::npos) << body;
  EXPECT_FALSE(svc::read_frame(fd).has_value());  // connection dropped
  ::close(fd);
}

TEST(Endpoint, TcpLoopbackWorks) {
  svc::JobScheduler scheduler(svc::SchedulerOptions{.workers = 1});
  svc::ServiceEndpoint endpoint(svc::EndpointOptions{.unix_path = {}, .tcp_port = 0}, scheduler);
  endpoint.start();
  ASSERT_GT(endpoint.port(), 0);
  auto client = svc::ServiceClient::connect_tcp(endpoint.port());
  const svc::Frame reply =
      client.call(svc::FrameType::kSubmit, svc::encode_job_request(karate_job()));
  EXPECT_EQ(reply.type, svc::FrameType::kManifest);
  endpoint.stop();
}
