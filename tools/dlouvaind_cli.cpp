// dlouvaind -- the long-lived clustering service (docs/SERVICE.md), both
// sides of the socket in one binary:
//
//   daemon:  dlouvaind --serve --socket /tmp/dl.sock [--workers 2]
//                      [--max-queue 64] [--cache-capacity 32]
//                      [--ready-file ready.txt] [--final-manifest drain.json]
//   client:  dlouvaind --submit --socket /tmp/dl.sock --gen karate
//                      [--ranks 4] [--variant etc] [--alpha 0.25] ...
//            dlouvaind --open NAME  ... same graph/config flags ...
//            dlouvaind --update NAME --changes add:0:5:1.0,del:2:3
//            dlouvaind --close NAME
//            dlouvaind --stats
//
// The daemon listens on a Unix socket (--socket) or loopback TCP (--port; 0
// picks a free port), serves DLSV frames, and on SIGTERM/SIGINT drains
// gracefully: every admitted job still gets its reply, then the final
// service manifest ("dlouvain-service-manifest/1") goes to stdout (and
// --final-manifest's path). --ready-file is written AFTER the socket
// listens -- "<socket-or-port>\n" -- so harnesses can wait for it instead
// of polling connect.
//
// Client modes ship the graph inline (generated locally from --gen) and
// print the reply manifest JSON to stdout; a kError reply prints one line
// to stderr and exits 1. Exit codes: 0 success, 1 refused/failed, 2 usage.
#include <signal.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "gen/simple.hpp"
#include "graph/csr.hpp"
#include "service/endpoint.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "util/cli.hpp"

namespace {

using namespace dlouvain;

int fail(const std::string& message) {
  std::cerr << "dlouvaind: " << message << '\n';
  return 1;
}

std::uint8_t parse_variant(const std::string& name, bool& ok) {
  ok = true;
  if (name == "baseline") return 0;
  if (name == "cycling") return 1;
  if (name == "et") return 2;
  if (name == "etc") return 3;
  ok = false;
  return 0;
}

/// `add:u:v[:w]` / `del:u:v`, comma-separated.
std::vector<graph::EdgeChange> parse_changes(const std::string& spec, bool& ok) {
  std::vector<graph::EdgeChange> changes;
  ok = true;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t end = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
    pos = end == std::string::npos ? spec.size() : end + 1;
    graph::EdgeChange c;
    char op[4] = {0};
    double w = 1.0;
    long long u = 0, v = 0;
    const int n = std::sscanf(item.c_str(), "%3[a-z]:%lld:%lld:%lf", op, &u, &v, &w);
    if (n < 3) {
      ok = false;
      return changes;
    }
    c.u = u;
    c.v = v;
    if (std::string(op) == "add") {
      c.weight = w;
      c.remove = false;
    } else if (std::string(op) == "del") {
      c.remove = true;
    } else {
      ok = false;
      return changes;
    }
    changes.push_back(c);
  }
  return changes;
}

/// Waits for SIGTERM/SIGINT with sigwait (signals are blocked first so no
/// handler races the accept/worker threads), then drains.
int run_daemon(service::SchedulerOptions sched_opts, service::EndpointOptions ep_opts,
               const std::string& ready_file, const std::string& final_manifest_path) {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  // Block BEFORE spawning any thread so every thread inherits the mask and
  // the signal is only ever consumed by sigwait below.
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  service::JobScheduler scheduler(sched_opts);
  service::ServiceEndpoint endpoint(ep_opts, scheduler);
  endpoint.start();

  if (!ready_file.empty()) {
    std::ofstream out(ready_file);
    if (!ep_opts.unix_path.empty())
      out << ep_opts.unix_path << '\n';
    else
      out << endpoint.port() << '\n';
  }

  int sig = 0;
  sigwait(&set, &sig);

  endpoint.stop();  // close listener, drain scheduler, join connections
  const std::string manifest = scheduler.final_manifest();
  if (!final_manifest_path.empty()) {
    std::ofstream out(final_manifest_path);
    out << manifest << '\n';
  }
  std::cout << manifest << '\n';
  return 0;
}

service::ServiceClient connect(const std::string& socket_path, int port) {
  if (!socket_path.empty()) return service::ServiceClient::connect_unix(socket_path);
  return service::ServiceClient::connect_tcp(port);
}

/// Print the reply: manifests to stdout, errors to stderr + exit 1.
int finish_reply(const service::Frame& reply) {
  const std::string body(reinterpret_cast<const char*>(reply.payload.data()),
                         reply.payload.size());
  if (reply.type == service::FrameType::kError) return fail("refused: " + body);
  std::cout << body << '\n';
  return 0;
}

int run_cli(int argc, char** argv) {
  util::Cli cli(argc, argv);

  const bool serve = cli.get_flag("serve", false, "run the daemon");
  const bool submit = cli.get_flag("submit", false, "submit one job, print the manifest");
  const std::string open_name = cli.get_string("open", "", "open a named streaming session");
  const std::string update_name = cli.get_string("update", "", "update a named session");
  const std::string close_name = cli.get_string("close", "", "close a named session");
  const bool stats = cli.get_flag("stats", false, "print the live service manifest");

  const std::string socket_path =
      cli.get_string("socket", "", "unix socket path (daemon and clients)");
  const int port = cli.get_int<int>("port", -1, "loopback TCP port (0 = pick)");

  // daemon knobs
  service::SchedulerOptions sched;
  sched.workers = cli.get_int<int>("workers", 2, "concurrent job executions");
  sched.max_queue =
      cli.get_int<std::size_t>("max-queue", 64, "queued-job admission bound");
  sched.cache_capacity =
      cli.get_int<std::size_t>("cache-capacity", 32, "LRU result-cache entries");
  sched.max_ranks =
      cli.get_int<int>("max-ranks", 64, "per-job limit on ranks and on ranks x threads");
  sched.max_edges = cli.get_int("max-edges", 50'000'000,
                               "per-job limit on the edge count and the vertex count");
  const std::string ready_file =
      cli.get_string("ready-file", "", "write socket/port here once listening");
  const std::string final_manifest_path =
      cli.get_string("final-manifest", "", "write the drain manifest here too");

  // client job knobs
  const std::string gen = cli.get_string("gen", "karate",
                                         "graph: karate | planted | cliques");
  const auto n = cli.get_int("n", 256, "planted: vertices");
  const int blocks = cli.get_int<int>("blocks", 8, "planted: communities");
  const double p_in = cli.get_double("p-in", 0.3, "planted: intra-community edge prob");
  const double p_out = cli.get_double("p-out", 0.01, "planted: inter-community edge prob");
  const auto gseed = cli.get_int<std::uint64_t>("gen-seed", 42, "generator seed");
  const auto cliques = cli.get_int("cliques", 8, "cliques: count");
  const auto clique_size = cli.get_int("clique-size", 12, "cliques: size");

  service::JobConfig config;
  config.ranks = cli.get_int<int>("ranks", 4, "in-process ranks");
  config.threads = cli.get_int<int>("threads", 1, "threads per rank");
  const std::string variant_name =
      cli.get_string("variant", "baseline", "baseline | cycling | et | etc");
  config.alpha = cli.get_double("alpha", 0.25, "ET aggressiveness");
  config.threshold = cli.get_double("threshold", 1e-6, "convergence threshold");
  config.resolution = cli.get_double("resolution", 1.0, "resolution gamma");
  config.seed = cli.get_int<std::uint64_t>("seed", 7777, "algorithm seed");
  config.max_phases = cli.get_int<int>("max-phases", 64, "");
  config.max_iterations = cli.get_int<int>("max-iterations", 512, "");

  const std::string changes_spec =
      cli.get_string("changes", "", "update batch: add:u:v[:w],del:u:v,...");

  if (!cli.finish()) return 2;

  const int modes = static_cast<int>(serve) + static_cast<int>(submit) +
                    static_cast<int>(!open_name.empty()) +
                    static_cast<int>(!update_name.empty()) +
                    static_cast<int>(!close_name.empty()) + static_cast<int>(stats);
  if (modes != 1) {
    std::cerr << "dlouvaind: pass exactly one of --serve, --submit, --open, "
                 "--update, --close, --stats\n";
    return 2;
  }
  if (socket_path.empty() && port < 0) {
    std::cerr << "dlouvaind: pass --socket PATH or --port N\n";
    return 2;
  }

  if (serve) {
    service::EndpointOptions ep;
    ep.unix_path = socket_path;
    ep.tcp_port = port;
    return run_daemon(sched, ep, ready_file, final_manifest_path);
  }

  auto client = connect(socket_path, port);

  if (stats) return finish_reply(client.call(service::FrameType::kStats));

  if (!close_name.empty()) {
    service::WireWriter w;
    w.put_string(close_name);
    return finish_reply(client.call(service::FrameType::kCloseSession,
                                    std::span<const std::byte>(w.bytes())));
  }

  if (!update_name.empty()) {
    bool ok = false;
    service::UpdateRequest req;
    req.session_name = update_name;
    req.changes = parse_changes(changes_spec, ok);
    if (!ok || req.changes.empty())
      return fail("--update needs --changes add:u:v[:w],del:u:v,...");
    const auto payload = service::encode_update_request(req);
    return finish_reply(client.call(service::FrameType::kUpdate, payload));
  }

  // --submit / --open: build the graph locally, ship it inline.
  bool variant_ok = false;
  service::JobRequest req;
  req.config = config;
  req.config.variant = parse_variant(variant_name, variant_ok);
  if (!variant_ok) return fail("unknown --variant '" + variant_name + "'");
  req.session_name = open_name;

  gen::GeneratedGraph g;
  if (gen == "karate")
    g = gen::karate_club();
  else if (gen == "planted")
    g = gen::planted_partition(n, blocks, p_in, p_out, gseed);
  else if (gen == "cliques")
    g = gen::clique_chain(cliques, clique_size);
  else
    return fail("unknown --gen '" + gen + "' (karate | planted | cliques)");

  // Normalize through a CSR so equal graphs ship equal bytes (equal
  // fingerprints) no matter how the generator ordered its edge list.
  const graph::Csr csr = graph::from_edges(g.num_vertices, g.edges);
  req.num_vertices = csr.num_vertices();
  req.edges = service::canonical_edges(csr);

  const auto payload = service::encode_job_request(req);
  return finish_reply(client.call(
      open_name.empty() ? service::FrameType::kSubmit : service::FrameType::kOpenSession,
      payload));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
