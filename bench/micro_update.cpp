// micro_update: Session::update against a from-scratch Plan::run on the
// same final graph, for the streaming Session API.
//
// Opens a Session on an R-MAT graph, streams a few small edge batches
// (each touching well under 5% of the vertices once neighbourhoods are
// counted), and times each Session::update() against a from-scratch
// Plan::run() on the SAME final graph. With `--json=<path>` it writes the
// `update` section of the micro trail (schema dlouvain-bench/1, committed as
// bench/trail.json; see docs/PERFORMANCE.md §5):
//
//   micro_update --json=update.json --scale=16 --ranks=8
//
// `--scale`, `--reps` (from-scratch best-of) and `--ranks` are the trail
// flags; `--threads`, `--batches`, `--batch_edges`, `--degree_cap` and
// `--verbose` shape the stream. tools/check_bench_regression.py --bench
// drives this binary and asserts the speedup floor and the modularity
// tolerance on the `update` section.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "dlouvain.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "util/timer.hpp"

namespace dg = dlouvain::graph;
namespace gen = dlouvain::gen;
using dlouvain::Edge;
using dlouvain::EdgeBatch;
using dlouvain::Plan;
using dlouvain::VertexId;

namespace {

struct Options {
  std::string json_path;
  int scale{16};
  int ranks{8};
  int threads{1};
  int reps{3};
  int batches{3};
  int batch_edges{0};  ///< 0 = vertices / 2048, floor 8
  int degree_cap{32};  ///< batch endpoints must have degree <= cap
  bool verbose{false};  ///< per-phase timing dump after every update
};

int run(const Options& opt) {
  gen::RmatParams params;
  params.scale = opt.scale;
  params.edges_per_vertex = 8;
  params.seed = 42;
  const auto g = gen::rmat(params);
  const VertexId n = g.num_vertices;
  const int batch_edges =
      opt.batch_edges > 0 ? opt.batch_edges
                          : std::max<int>(8, static_cast<int>(n / 2048));

  // Current undirected edge set (each edge once), so removals are valid.
  auto base_csr = dg::from_edges(n, g.edges);
  std::vector<Edge> edges;
  for (VertexId v = 0; v < n; ++v) {
    for (const auto& e : base_csr.neighbors(v)) {
      if (e.dst >= v) edges.push_back(Edge{v, e.dst, e.weight});
    }
  }

  std::cout << "== micro_update: Session::update vs from-scratch ==\n"
            << "graph:   rmat scale " << opt.scale << " (" << n << " vertices, "
            << edges.size() << " edges)\n"
            << "plan:    " << opt.ranks << " ranks x " << opt.threads
            << " thread(s)\n"
            << "stream:  " << opt.batches << " batches x " << batch_edges
            << " edges (half add, half remove; endpoint degree <= "
            << opt.degree_cap << ")\n\n";

  // The acceptance scenario is a batch touching < 5% of the vertices once
  // neighbourhoods are counted. Uniform edge sampling on an R-MAT graph
  // lands on the power-law hubs, whose neighbourhoods alone are a double-
  // digit fraction of the graph -- so batch endpoints are rejection-sampled
  // to a degree cap, which models the common streaming case (fringe churn)
  // rather than the rare catastrophic one (a hub rewiring, which the
  // fallback path handles).
  std::vector<std::int32_t> degree(static_cast<std::size_t>(n), 0);
  for (const auto& e : edges) {
    ++degree[static_cast<std::size_t>(e.src)];
    ++degree[static_cast<std::size_t>(e.dst)];
  }
  const auto capped = [&](VertexId v) {
    return degree[static_cast<std::size_t>(v)] <= opt.degree_cap;
  };

  const auto plan = Plan::distributed(opt.ranks).threads(opt.threads);
  auto session = plan.open(base_csr);
  const double initial_modularity = session.result().modularity;

  std::mt19937_64 rng(7);
  std::vector<double> update_seconds;
  std::int64_t reactivated_total = 0;
  long reconverge_total = 0;
  for (int b = 0; b < opt.batches; ++b) {
    EdgeBatch batch;
    for (int i = 0; i < batch_edges / 2 && !edges.empty(); ++i) {
      auto pick = static_cast<std::size_t>(rng() % edges.size());
      for (int attempt = 0;
           attempt < 256 && !(capped(edges[pick].src) && capped(edges[pick].dst));
           ++attempt) {
        pick = static_cast<std::size_t>(rng() % edges.size());
      }
      batch.remove(edges[pick].src, edges[pick].dst);
      --degree[static_cast<std::size_t>(edges[pick].src)];
      --degree[static_cast<std::size_t>(edges[pick].dst)];
      edges[pick] = edges.back();
      edges.pop_back();
    }
    const auto pick_vertex = [&]() {
      auto v = static_cast<VertexId>(rng() % static_cast<std::uint64_t>(n));
      for (int attempt = 0; attempt < 256 && !capped(v); ++attempt) {
        v = static_cast<VertexId>(rng() % static_cast<std::uint64_t>(n));
      }
      return v;
    };
    for (int i = 0; i < batch_edges - batch_edges / 2; ++i) {
      const auto u = pick_vertex();
      auto v = pick_vertex();
      if (v == u) v = (v + 1) % n;
      batch.add(u, v, 1.0);
      ++degree[static_cast<std::size_t>(u)];
      ++degree[static_cast<std::size_t>(v)];
      edges.push_back(Edge{std::min(u, v), std::max(u, v), 1.0});
    }
    const auto stats = session.update(batch);
    update_seconds.push_back(stats.seconds);
    reactivated_total += stats.vertices_reactivated;
    reconverge_total += stats.reconverge_iterations;
    std::cout << "batch " << b << ": " << stats.seconds << " s, "
              << stats.vertices_reactivated << " reactivated, "
              << stats.reconverge_iterations << " warm iterations"
              << (stats.fell_back_to_full ? " [FELL BACK TO FULL]" : "") << '\n';
    if (opt.verbose && session.result().distributed) {
      double phases_total = 0;
      for (const auto& ph : session.result().distributed->phase_telemetry) {
        phases_total += ph.seconds;
        std::cout << "    phase " << ph.phase << ": " << ph.seconds << " s, "
                  << ph.graph_vertices << " vertices, " << ph.iterations
                  << " iterations (compute " << ph.breakdown.compute
                  << ", ghost " << ph.breakdown.ghost_exchange << ", info "
                  << ph.breakdown.community_info << ", delta "
                  << ph.breakdown.delta_exchange << ", allreduce "
                  << ph.breakdown.allreduce << ", rebuild "
                  << ph.breakdown.rebuild << ")\n";
      }
      std::cout << "    phases total " << phases_total
                << " s; apply+overhead " << (stats.seconds - phases_total)
                << " s\n";
    }
  }
  // Note: duplicate adds may have left parallel entries in `edges`; the CSR
  // build coalesces them exactly like Session::update does.
  const auto final_csr = dg::from_edges(n, edges);

  double scratch_seconds = 0;
  dlouvain::Result scratch;
  for (int rep = 0; rep < opt.reps; ++rep) {
    const dlouvain::util::WallTimer timer;
    scratch = plan.run(final_csr);
    const double s = timer.seconds();
    scratch_seconds = rep == 0 ? s : std::min(scratch_seconds, s);
  }

  const double update_mean =
      std::accumulate(update_seconds.begin(), update_seconds.end(), 0.0) /
      static_cast<double>(update_seconds.size());
  const double speedup = update_mean > 0 ? scratch_seconds / update_mean : 0;
  // One-sided: the tolerance bounds how far the warm result may land BELOW
  // the from-scratch one. Warm-starting from a converged partition routinely
  // lands above scratch quality; that is not drift.
  const double mod_delta =
      std::max(0.0, scratch.modularity - session.result().modularity);
  const double touched_fraction =
      static_cast<double>(reactivated_total) /
      (static_cast<double>(n) * static_cast<double>(opt.batches));
  const auto fallbacks = session.result().updates.fallback_to_full;

  std::cout << "\nupdate mean:   " << update_mean << " s\n"
            << "from-scratch:  " << scratch_seconds << " s (best of " << opt.reps
            << ")\n"
            << "speedup:       " << speedup << "x\n"
            << "modularity:    session " << session.result().modularity
            << " vs scratch " << scratch.modularity << " (drift below scratch "
            << mod_delta << ")\n"
            << "touched/batch: " << 100.0 * touched_fraction << "% of vertices\n"
            << "fallbacks:     " << fallbacks << '\n';

  if (!opt.json_path.empty()) {
    using dlouvain::core::json_number;
    std::string out = "{\"schema\":\"dlouvain-bench/1\",\"update\":{";
    out += "\"graph\":{\"family\":\"rmat\",\"scale\":" + std::to_string(opt.scale) +
           ",\"vertices\":" + std::to_string(n) +
           ",\"edges\":" + std::to_string(edges.size()) + "}";
    out += ",\"ranks\":" + std::to_string(opt.ranks);
    out += ",\"threads\":" + std::to_string(opt.threads);
    out += ",\"batches\":" + std::to_string(opt.batches);
    out += ",\"batch_edges\":" + std::to_string(batch_edges);
    out += ",\"degree_cap\":" + std::to_string(opt.degree_cap);
    out += ",\"update_seconds\":[";
    for (std::size_t i = 0; i < update_seconds.size(); ++i) {
      if (i != 0) out += ',';
      out += json_number(update_seconds[i]);
    }
    out += "],\"update_seconds_mean\":" + json_number(update_mean);
    out += ",\"scratch_seconds\":" + json_number(scratch_seconds);
    out += ",\"speedup\":" + json_number(speedup);
    out += ",\"initial_modularity\":" + json_number(initial_modularity);
    out += ",\"session_modularity\":" + json_number(session.result().modularity);
    out += ",\"scratch_modularity\":" + json_number(scratch.modularity);
    out += ",\"modularity_delta\":" + json_number(mod_delta);
    out += ",\"touched_fraction\":" + json_number(touched_fraction);
    out += ",\"vertices_reactivated\":" + std::to_string(reactivated_total);
    out += ",\"reconverge_iterations\":" + std::to_string(reconverge_total);
    out += ",\"fallbacks\":" + std::to_string(fallbacks);
    out += "}}";
    std::ofstream f(opt.json_path, std::ios::trunc);
    if (!f) {
      std::cerr << "micro_update: cannot open " << opt.json_path << '\n';
      return 1;
    }
    f << out << '\n';
    std::cout << "\nwrote " << opt.json_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto grab = [&](const char* prefix, auto parse) {
      if (arg.rfind(prefix, 0) != 0) return false;
      parse(arg.substr(std::strlen(prefix)));
      return true;
    };
    const bool known =
        grab("--json=", [&](const std::string& v) { opt.json_path = v; }) ||
        grab("--scale=", [&](const std::string& v) { opt.scale = std::stoi(v); }) ||
        grab("--reps=", [&](const std::string& v) { opt.reps = std::stoi(v); }) ||
        grab("--ranks=", [&](const std::string& v) { opt.ranks = std::stoi(v); }) ||
        grab("--threads=", [&](const std::string& v) { opt.threads = std::stoi(v); }) ||
        grab("--batches=", [&](const std::string& v) { opt.batches = std::stoi(v); }) ||
        grab("--batch_edges=",
             [&](const std::string& v) { opt.batch_edges = std::stoi(v); }) ||
        grab("--degree_cap=",
             [&](const std::string& v) { opt.degree_cap = std::stoi(v); }) ||
        grab("--verbose=",
             [&](const std::string& v) { opt.verbose = std::stoi(v) != 0; });
    if (!known) {
      std::cerr << "micro_update: unknown flag " << arg << '\n';
      return 2;
    }
  }
  return run(opt);
}
