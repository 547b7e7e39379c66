// Table V + Fig. 4: weak scaling on GTgraph-SSCA#2-style inputs -- graph
// size grows proportionally with the rank count so work per rank stays
// fixed; the paper observes near-constant execution time and identical
// convergence behaviour (same phase/iteration counts) at every size, with
// modularity 0.9999+.
//
// Simulator caveat: all ranks share one physical core here, so raw
// wall-clock grows with total work by construction. The per-rank share
// (wall-clock / ranks) is the 1-core analogue of the paper's parallel time
// and is the flat series to look at; the identical-convergence property is
// checked directly.
#include <iostream>

#include "bench/harness.hpp"
#include "core/dist_louvain.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const auto ranks = cli.get_int_list("ranks", {1, 2, 4, 8}, "rank counts (graph grows with p)");
  const VertexId per_rank = cli.get_int("per-rank", 1500, "vertices per rank");
  const VertexId max_clique = cli.get_int("max-clique", 30, "SSCA#2 clique cap");
  if (!cli.finish()) return 1;

  bench::banner("Table V + Fig. 4: weak scaling on SSCA#2 graphs (Baseline)",
                "GTgraph SSCA#2, 5M-150M vertices, 1-512 processes, maxClique=100",
                "SSCA#2-style generator, " + std::to_string(per_rank) +
                    " vertices/rank, maxClique=" + std::to_string(max_clique));

  util::TextTable table({"Name", "#Vertices", "#Edges", "Modularity", "#Processes",
                         "wall (s)", "wall/p (s)", "phases", "iterations"});
  int row_id = 1;
  for (const auto p : ranks) {
    gen::Ssca2Params params;
    params.num_vertices = per_rank * p;
    params.max_clique_size = max_clique;
    params.inter_clique_prob = 0.0005;  // deliberately low inter-clique density
    params.seed = 1234;                // same structure class at every size
    const auto generated = gen::ssca2(params);
    const auto csr = graph::from_edges(generated.num_vertices, generated.edges);

    util::WallTimer timer;
    const auto result = core::dist_louvain_inprocess(static_cast<int>(p), csr);
    const double wall = timer.seconds();

    table.add_row({"Graph#" + std::to_string(row_id++),
                   util::TextTable::fmt(csr.num_vertices()),
                   util::TextTable::fmt(csr.num_arcs() / 2),
                   util::TextTable::fmt(result.modularity, 6),
                   util::TextTable::fmt(p),
                   util::TextTable::fmt(wall, 3),
                   util::TextTable::fmt(wall / static_cast<double>(p), 3),
                   util::TextTable::fmt(result.phases),
                   util::TextTable::fmt(result.total_iterations)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: near-constant execution time; identical convergence"
               " criteria across sizes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
