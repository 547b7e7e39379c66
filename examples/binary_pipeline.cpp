// File-based pipeline: the deployment shape the paper uses on Cori --
// convert a graph to the binary edge-list format once, then have every rank
// read only its slice of the file (the MPI-I/O pattern) and run distributed
// Louvain on the pieces.
//
//   $ ./binary_pipeline [--n 4000] [--ranks 4] [--file /tmp/graph.dlel]
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "comm/world.hpp"
#include "core/dist_louvain.hpp"
#include "gen/ssca2.hpp"
#include "graph/binary_io.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const VertexId n = cli.get_int("n", 4000, "vertices of the generated graph");
  const int ranks = cli.get_int<int>("ranks", 4, "in-process ranks");
  const auto path = cli.get_string(
      "file", (std::filesystem::temp_directory_path() / "dlouvain_pipeline.dlel").string(),
      "binary edge-list path");
  if (!cli.finish()) return 1;

  // Step 1: one-time conversion to the binary format.
  gen::Ssca2Params params;
  params.num_vertices = n;
  params.max_clique_size = 30;
  params.inter_clique_prob = 0.01;
  const auto generated = gen::ssca2(params);
  graph::write_binary(path, generated.num_vertices, generated.edges);
  const auto header = graph::read_binary_header(path);
  std::cout << "wrote " << path << ": " << header.num_vertices << " vertices, "
            << header.num_edges << " edges ("
            << std::filesystem::file_size(path) / 1024 << " KiB)\n";

  // Step 2: collective sliced load + community detection. Each rank reads
  // a disjoint 1/p range of the records, the edges are shuffled to their
  // owners, and the algorithm runs on the distributed pieces.
  core::DistResult result;
  comm::run(ranks, [&](comm::Comm& comm) {
    auto dist = graph::load_distributed(comm, path);
    auto r = core::dist_louvain(comm, std::move(dist), core::DistConfig::etc(0.25));
    if (comm.is_root()) result = std::move(r);
  });

  std::cout << "communities: " << result.num_communities << '\n'
            << "modularity:  " << result.modularity << '\n'
            << "phases:      " << result.phases << ", iterations: "
            << result.total_iterations << '\n';

  std::filesystem::remove(path);
  return 0;
}
