// Ablation: the resolution parameter gamma (Reichardt-Bornholdt), the
// standard mitigation for the resolution limit the paper's introduction
// discusses (Fortunato & Barthelemy [12]; Traag et al. [30] for
// resolution-limit-free variants). Sweeping gamma on a clique-structured
// graph shows the community count growing monotonically with gamma while
// classical modularity (gamma = 1) of the produced partition peaks at
// gamma = 1 -- the expected signature.
#include <iostream>

#include "bench/harness.hpp"
#include "gen/ssca2.hpp"
#include "graph/csr.hpp"
#include "louvain/modularity.hpp"
#include "louvain/serial.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const VertexId n = cli.get_int("n", 3000, "graph vertices");
  const auto gammas = cli.get_double_list("gamma", {0.1, 0.3, 1.0, 3.0, 10.0},
                                          "resolution values");
  if (!cli.finish()) return 1;

  bench::banner("Ablation: resolution parameter gamma",
                "resolution limit discussion (paper Section I, refs [12], [30])",
                "SSCA#2 cliques, serial Louvain, gamma sweep");

  gen::Ssca2Params params;
  params.num_vertices = n;
  params.max_clique_size = 40;
  params.inter_clique_prob = 0.02;
  const auto generated = gen::ssca2(params);
  const auto g = graph::from_edges(generated.num_vertices, generated.edges);
  CommunityId planted = 0;
  for (const auto c : generated.ground_truth) planted = std::max(planted, c);
  ++planted;
  std::cout << "graph: " << g.num_vertices() << " vertices, " << g.num_arcs() / 2
            << " edges, " << planted << " planted cliques\n\n";

  util::TextTable table({"gamma", "communities", "Q_gamma", "Q_1 (classic)"});
  for (const double gamma : gammas) {
    louvain::LouvainConfig cfg;
    cfg.resolution = gamma;
    const auto result = louvain::louvain_serial(g, cfg);
    table.add_row({util::TextTable::fmt(gamma, 2),
                   util::TextTable::fmt(result.num_communities),
                   util::TextTable::fmt(result.modularity, 4),
                   util::TextTable::fmt(louvain::modularity(g, result.community), 4)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
