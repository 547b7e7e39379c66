// Micro-benchmarks for the algorithmic kernels: CSR assembly, modularity
// evaluation, one local-move sweep with the segmented kernel every engine
// runs (util/segmented.hpp), coarsening, and the generators feeding the
// table harnesses.
//
// Google Benchmark mode by default. Any trail flag instead times the sweep
// and coarsen kernels best-of-reps on one R-MAT graph and, with
// `--json=<path>`, writes them as the `kernels` section of the micro trail
// (schema dlouvain-bench/1, committed as bench/trail.json; see
// docs/PERFORMANCE.md §5):
//
//   micro_kernels --json=kernels.json --scale=16 --reps=9
//
// `--scale=N` is the R-MAT scale (default 16), `--reps=N` the best-of count
// (default 5). The kernels run on one rank, so `--ranks` accepts only 1.
// tools/check_bench_regression.py --bench drives this binary and gates each
// kernel's ns/arc against the committed trail.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"
#include "louvain/coarsen.hpp"
#include "louvain/modularity.hpp"
#include "louvain/serial.hpp"
#include "louvain/shared.hpp"
#include "util/segmented.hpp"

namespace {

using namespace dlouvain;

gen::GeneratedGraph bench_graph(std::int64_t n) {
  gen::Ssca2Params p;
  p.num_vertices = n;
  p.max_clique_size = 25;
  p.inter_clique_prob = 0.01;
  return gen::ssca2(p);
}

gen::GeneratedGraph rmat_graph(int scale) {
  gen::RmatParams p;
  p.scale = scale;
  p.edges_per_vertex = 8;
  p.seed = 42;
  return gen::rmat(p);
}

// ---- one local-move sweep ---------------------------------------------------
// The single-node sweep (the serial engine's inner loop, without shuffling or
// early termination): scan every vertex, accumulate neighbour-community
// weights, move to the best-gain community.

struct SweepInput {
  graph::Csr csr;
  std::vector<Weight> k;           ///< weighted degree per vertex
  std::vector<Weight> a_init;      ///< initial community degrees (= k)
  Weight m{0};                     ///< total edge weight
};

SweepInput make_sweep_input(const gen::GeneratedGraph& g) {
  SweepInput in;
  in.csr = graph::from_edges(g.num_vertices, g.edges);
  const auto n = static_cast<std::size_t>(in.csr.num_vertices());
  in.k.resize(n);
  for (VertexId v = 0; v < in.csr.num_vertices(); ++v)
    in.k[static_cast<std::size_t>(v)] = in.csr.weighted_degree(v);
  in.a_init = in.k;
  in.m = in.csr.total_arc_weight() / 2;
  return in;
}

/// The segmented kernel the engines run: arcs grouped by destination-community
/// segment in first-touch order, argmax via util::best_segment.
std::int64_t sweep_segmented(const SweepInput& in, std::vector<CommunityId>& curr,
                             std::vector<Weight>& a) {
  const VertexId n = in.csr.num_vertices();
  const Weight m = in.m;
  util::SegmentedAccumulator<Weight> nbr_weight;
  std::int64_t moved = 0;
  for (VertexId v = 0; v < n; ++v) {
    const CommunityId own = curr[static_cast<std::size_t>(v)];
    const Weight kv = in.k[static_cast<std::size_t>(v)];
    nbr_weight.reset(static_cast<std::size_t>(n));
    for (const auto& e : in.csr.neighbors(v)) {
      if (e.dst == v) continue;
      nbr_weight.add(curr[static_cast<std::size_t>(e.dst)], e.weight);
    }
    const Weight e_own = nbr_weight.sum_of(own);
    const Weight a_own_less_v = a[static_cast<std::size_t>(own)] - kv;
    const auto pick = util::best_segment(
        nbr_weight, nbr_weight.segment_of(own), e_own, a_own_less_v, kv, m, 1.0,
        [&](std::int64_t slot) { return a[static_cast<std::size_t>(slot)]; },
        [](std::int64_t slot) { return static_cast<CommunityId>(slot); });
    const CommunityId best =
        pick.segment >= 0
            ? nbr_weight.slots()[static_cast<std::size_t>(pick.segment)]
            : own;
    if (best != own) {
      a[static_cast<std::size_t>(own)] -= kv;
      a[static_cast<std::size_t>(best)] += kv;
      curr[static_cast<std::size_t>(v)] = best;
      ++moved;
    }
  }
  return moved;
}

template <typename Sweep>
std::int64_t timed_sweep(const SweepInput& in, Sweep&& sweep, int reps,
                         double& best_ns) {
  std::vector<CommunityId> curr(in.k.size());
  std::vector<Weight> a;
  std::int64_t moved = 0;
  best_ns = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::iota(curr.begin(), curr.end(), CommunityId{0});
    a = in.a_init;
    const auto t0 = std::chrono::steady_clock::now();
    moved = sweep(in, curr, a);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (ns < best_ns) best_ns = ns;
  }
  return moved;
}

void BM_CsrBuild(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  for (auto _ : state) {
    auto csr = graph::from_edges(g.num_vertices, g.edges);
    benchmark::DoNotOptimize(csr);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g.edges.size()));
}
BENCHMARK(BM_CsrBuild)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_Modularity(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    benchmark::DoNotOptimize(louvain::modularity(csr, g.ground_truth));
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_Modularity)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_SerialLouvain(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    auto result = louvain::louvain_serial(csr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_SerialLouvain)->Arg(1000)->Arg(4000);

void BM_SharedLouvain(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    auto result = louvain::louvain_shared(csr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_SharedLouvain)->Arg(1000)->Arg(4000);

void BM_Coarsen(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    auto coarse = louvain::coarsen(csr, g.ground_truth);
    benchmark::DoNotOptimize(coarse);
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_Coarsen)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_GenLfr(benchmark::State& state) {
  gen::LfrParams p;
  p.num_vertices = state.range(0);
  p.avg_degree = 20;
  p.max_degree = 60;
  p.mu = 0.3;
  for (auto _ : state) {
    auto g = gen::lfr(p);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GenLfr)->Arg(1000)->Arg(4000);

void BM_GenSsca2(benchmark::State& state) {
  for (auto _ : state) {
    auto g = bench_graph(state.range(0));
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GenSsca2)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_LocalMoveSweepSegmented(benchmark::State& state) {
  const auto in = make_sweep_input(rmat_graph(static_cast<int>(state.range(0))));
  std::vector<CommunityId> curr(in.k.size());
  std::vector<Weight> a;
  for (auto _ : state) {
    std::iota(curr.begin(), curr.end(), CommunityId{0});
    a = in.a_init;
    benchmark::DoNotOptimize(sweep_segmented(in, curr, a));
  }
  state.SetItemsProcessed(state.iterations() * in.csr.num_arcs());
}
BENCHMARK(BM_LocalMoveSweepSegmented)->Arg(10)->Arg(12);

// ---- the trail's kernels section --------------------------------------------

struct TrailOptions {
  std::string json_path;
  int scale{16};
  int reps{5};
  int ranks{1};
};

int run_trail(const TrailOptions& opt) {
  using core::json_number;
  const auto in = make_sweep_input(rmat_graph(opt.scale));
  const auto arcs = static_cast<double>(in.csr.num_arcs());

  double sweep_ns = 0;
  const auto moved = timed_sweep(in, sweep_segmented, opt.reps, sweep_ns);

  // Coarsen by the sweep's resulting assignment.
  std::vector<CommunityId> curr(in.k.size());
  std::iota(curr.begin(), curr.end(), CommunityId{0});
  std::vector<Weight> a = in.a_init;
  sweep_segmented(in, curr, a);
  double coarsen_ns = 1e300;
  for (int rep = 0; rep < opt.reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto coarse = louvain::coarsen(in.csr, curr);
    benchmark::DoNotOptimize(coarse);
    const auto t1 = std::chrono::steady_clock::now();
    coarsen_ns = std::min(
        coarsen_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }

  std::cout << "local_move: " << sweep_ns / arcs << " ns/arc (" << moved
            << " moves)\n"
            << "coarsen:    " << coarsen_ns / arcs << " ns/arc\n";
  if (opt.json_path.empty()) return 0;

  const auto kernel = [&](double ns) {
    return "{\"ns_per_op\":" + json_number(ns) +
           ",\"ns_per_arc\":" + json_number(ns / arcs) +
           ",\"reps\":" + std::to_string(opt.reps);
  };
  std::string out = "{\"schema\":\"dlouvain-bench/1\",\"kernels\":{";
  out += "\"graph\":{\"kind\":\"rmat\",\"scale\":" + std::to_string(opt.scale) +
         ",\"edges_per_vertex\":8,\"seed\":42,\"vertices\":" +
         std::to_string(in.csr.num_vertices()) +
         ",\"arcs\":" + std::to_string(in.csr.num_arcs()) + "}";
  out += ",\"local_move\":" + kernel(sweep_ns) +
         ",\"moved\":" + std::to_string(moved) + "}";
  out += ",\"coarsen\":" + kernel(coarsen_ns) + "}";
  out += "}}";
  std::ofstream f(opt.json_path, std::ios::trunc);
  if (!f) {
    std::cerr << "micro_kernels: cannot open " << opt.json_path << '\n';
    return 1;
  }
  f << out << '\n';
  std::cout << "wrote " << opt.json_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  TrailOptions opt;
  bool trail = false;
  std::vector<char*> passthrough{argv[0]};
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
        grab("--ranks=", [&](const std::string& v) { opt.ranks = std::stoi(v); });
    if (known) {
      trail = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (trail) {
    if (passthrough.size() > 1) {
      std::cerr << "micro_kernels: cannot mix trail flags with benchmark flags ("
                << passthrough[1] << ")\n";
      return 2;
    }
    if (opt.ranks != 1) {
      std::cerr << "micro_kernels: the kernels run on one rank (--ranks="
                << opt.ranks << ")\n";
      return 2;
    }
    return run_trail(opt);
  }

  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
