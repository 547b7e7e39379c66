// Social-network scenario: detect communities in an LFR-style social graph
// (power-law degrees, planted communities with tunable mixing) and score the
// result against the known ground truth -- the paper's Section V-D pipeline
// as an application.
//
//   $ ./social_network [--n 2000] [--mu 0.3] [--ranks 4] [--alpha 0.25]
#include <iostream>

#include "core/dist_louvain.hpp"
#include "gen/lfr.hpp"
#include "graph/csr.hpp"
#include "quality/fscore.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  gen::LfrParams params;
  params.num_vertices = cli.get_int("n", 2000, "members of the network");
  params.mu = cli.get_double("mu", 0.3, "mixing: fraction of cross-community ties");
  params.avg_degree = cli.get_double("deg", 20, "average friend count");
  params.max_degree = params.avg_degree * 3;
  params.seed = cli.get_int<std::uint64_t>("seed", 42, "");
  const int ranks = cli.get_int<int>("ranks", 4, "in-process ranks");
  const double alpha = cli.get_double("alpha", 0.25, "ET aggressiveness");
  if (!cli.finish()) return 1;

  const auto generated = gen::lfr(params);
  const auto graph = graph::from_edges(generated.num_vertices, generated.edges);
  std::cout << "social graph: " << graph.num_vertices() << " members, "
            << graph.num_arcs() / 2 << " ties, mixing mu=" << params.mu << "\n\n";

  util::TextTable table(
      {"variant", "communities", "modularity", "precision", "recall", "F-score",
       "iterations"});
  for (const auto& cfg :
       {core::DistConfig::baseline(), core::DistConfig::et(alpha),
        core::DistConfig::etc(alpha)}) {
    const auto result = core::dist_louvain_inprocess(ranks, graph, cfg);
    const auto scores =
        quality::compare_to_ground_truth(result.community, generated.ground_truth);
    table.add_row({core::variant_label(cfg.variant, cfg.base.et_alpha),
                   util::TextTable::fmt(static_cast<long long>(result.num_communities)),
                   util::TextTable::fmt(result.modularity),
                   util::TextTable::fmt(scores.precision),
                   util::TextTable::fmt(scores.recall),
                   util::TextTable::fmt(scores.f_score),
                   util::TextTable::fmt(static_cast<long long>(result.total_iterations))});
  }
  table.print(std::cout);
  std::cout << "\n(ground truth: " << [&] {
    std::size_t k = 0;
    CommunityId max_c = 0;
    for (const auto c : generated.ground_truth) max_c = std::max(max_c, c);
    k = static_cast<std::size_t>(max_c) + 1;
    return k;
  }() << " planted communities)\n";
  return 0;
}
