// Micro-benchmarks for the distributed graph substrate: DistGraph input
// distribution (from_replicated: row-block copy + ghost discovery), partition
// owner lookups, and the binary I/O path.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "comm/world.hpp"
#include "gen/ssca2.hpp"
#include "graph/binary_io.hpp"
#include "graph/dist_graph.hpp"
#include "graph/partition.hpp"

namespace {

using namespace dlouvain;

gen::GeneratedGraph bench_graph(std::int64_t n) {
  gen::Ssca2Params p;
  p.num_vertices = n;
  p.max_clique_size = 25;
  p.inter_clique_prob = 0.01;
  return gen::ssca2(p);
}

void BM_DistGraphBuild(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto g = bench_graph(state.range(1));
  const auto csr = graph::from_edges(g.num_vertices, g.edges);
  for (auto _ : state) {
    comm::run(p, [&](comm::Comm& comm) {
      auto dist = graph::DistGraph::from_replicated(comm, csr);
      benchmark::DoNotOptimize(dist);
    });
  }
  state.SetItemsProcessed(state.iterations() * csr.num_arcs());
}
BENCHMARK(BM_DistGraphBuild)->Args({2, 2000})->Args({4, 2000})->Args({8, 2000})->Args({4, 8000});

void BM_PartitionOwnerLookup(benchmark::State& state) {
  const auto part = graph::partition_even_vertices(1 << 20, static_cast<int>(state.range(0)));
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.owner(v));
    v = (v + 7919) & ((1 << 20) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionOwnerLookup)->Arg(16)->Arg(256)->Arg(4096);

void BM_BinaryWriteRead(benchmark::State& state) {
  const auto g = bench_graph(state.range(0));
  const auto path =
      (std::filesystem::temp_directory_path() / "dlel_bench.bin").string();
  for (auto _ : state) {
    graph::write_binary(path, g.num_vertices, g.edges);
    auto edges = graph::read_binary_slice(path, 0, static_cast<EdgeId>(g.edges.size()));
    benchmark::DoNotOptimize(edges);
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edges.size()) * 24);
}
BENCHMARK(BM_BinaryWriteRead)->Arg(2000)->Arg(8000);

}  // namespace

BENCHMARK_MAIN();
