// Thread-scaling micro-benchmarks for the per-rank compute pool
// (util/parallel.hpp): the raw primitives, the local-move decision scan they
// exist for, and the end-to-end engines at 1/2/4 threads on an R-MAT graph
// (the structure class where the scan dominates). Run on a multi-core host;
// the *_threads:N counters divide out to the local-move speedup the hybrid
// threading targets (>= 2x at 4 threads on the decision scan).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/dist_louvain.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "louvain/shared.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlouvain;

const graph::Csr& rmat_csr() {
  static const graph::Csr csr = [] {
    gen::RmatParams p;
    p.scale = 13;  // 8192 vertices, ~60k edges: sweep-dominated, CI-sized
    p.edges_per_vertex = 8;
    p.seed = 7;
    const auto g = gen::rmat(p);
    return graph::from_edges(g.num_vertices, g.edges);
  }();
  return csr;
}

void BM_ParallelReduce(benchmark::State& state) {
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  const std::int64_t n = 1 << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::parallel_reduce(&pool, n, [](std::int64_t begin, std::int64_t end) {
          double s = 0;
          for (std::int64_t i = begin; i < end; ++i)
            s += 1.0 / (1.0 + static_cast<double>(i));
          return s;
        }));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelReduce)->Arg(1)->Arg(2)->Arg(4);

// The hot kernel the pool was built for: one full local-move DECISION scan
// (neighbour-community weight gathering + best-gain selection) against a
// fixed singleton assignment. No apply step, so iterations are identical and
// the timing isolates the parallelized portion of the sweep.
void BM_LocalMoveScan(benchmark::State& state) {
  const auto& g = rmat_csr();
  const auto n = g.num_vertices();
  util::ThreadPool pool(static_cast<int>(state.range(0)));

  std::vector<CommunityId> community(static_cast<std::size_t>(n));
  std::vector<Weight> a(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    community[static_cast<std::size_t>(v)] = v;
    a[static_cast<std::size_t>(v)] = g.weighted_degree(v);
  }
  const Weight m = g.total_arc_weight() / 2;
  std::vector<CommunityId> proposed(static_cast<std::size_t>(n));

  for (auto _ : state) {
    util::parallel_for(&pool, n, [&](int, std::int64_t begin, std::int64_t end) {
      std::unordered_map<CommunityId, Weight> nbr_weight;
      for (std::int64_t v = begin; v < end; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        const CommunityId own = community[vi];
        const Weight kv = g.weighted_degree(static_cast<VertexId>(v));
        nbr_weight.clear();
        for (const auto& e : g.neighbors(static_cast<VertexId>(v))) {
          if (e.dst == v) continue;
          nbr_weight[community[static_cast<std::size_t>(e.dst)]] += e.weight;
        }
        const auto own_it = nbr_weight.find(own);
        const Weight e_own = own_it == nbr_weight.end() ? 0.0 : own_it->second;
        const Weight a_own_less_v = a[static_cast<std::size_t>(own)] - kv;
        CommunityId best = own;
        Weight best_gain = 0;
        for (const auto& [target, e_target] : nbr_weight) {
          if (target == own) continue;
          const Weight gain =
              (e_target - e_own) / m -
              kv * (a[static_cast<std::size_t>(target)] - a_own_less_v) / (2 * m * m);
          if (gain > best_gain) {
            best = target;
            best_gain = gain;
          }
        }
        proposed[vi] = best;
      }
    });
    benchmark::DoNotOptimize(proposed.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_LocalMoveScan)->Arg(1)->Arg(2)->Arg(4);

void BM_SharedLouvain(benchmark::State& state) {
  const auto& g = rmat_csr();
  louvain::LouvainConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        louvain::louvain_shared(g, cfg, static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_SharedLouvain)->Arg(1)->Arg(2)->Arg(4);

void BM_DistLouvain(benchmark::State& state) {
  const auto& g = rmat_csr();
  core::DistConfig cfg = core::DistConfig::etc(0.25);
  cfg.threads_per_rank = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dist_louvain_inprocess(2, g, cfg));
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_DistLouvain)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
