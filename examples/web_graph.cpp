// Web-graph scenario: run the heuristic variants on a web-crawl-like graph
// (clique-dominated SSCA#2 surrogate of uk-2007) and print the per-phase
// telemetry, including the compute/communication time breakdown of the
// paper's Section V-A analysis.
//
//   $ ./web_graph [--graph uk-2007] [--scale 0.3] [--ranks 4]
#include <iostream>

#include "core/dist_louvain.hpp"
#include "gen/surrogate.hpp"
#include "graph/csr.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const auto name = cli.get_string("graph", "uk-2007", "surrogate graph name");
  const double scale = cli.get_double("scale", 0.3, "surrogate size multiplier");
  const int ranks = cli.get_int<int>("ranks", 4, "in-process ranks");
  if (!cli.finish()) return 1;

  const auto generated = gen::surrogate(name, scale);
  const auto graph = graph::from_edges(generated.num_vertices, generated.edges);
  std::cout << "web graph '" << name << "' surrogate: " << graph.num_vertices()
            << " pages, " << graph.num_arcs() / 2 << " links\n\n";

  util::TextTable summary({"variant", "modularity", "phases", "iterations",
                           "time (s)", "msgs", "comm share"});
  for (const auto& cfg :
       {core::DistConfig::baseline(), core::DistConfig::threshold_cycling(),
        core::DistConfig::et(0.25), core::DistConfig::etc(0.25)}) {
    const auto result = core::dist_louvain_inprocess(ranks, graph, cfg);
    const double comm_time = result.breakdown.ghost_exchange +
                             result.breakdown.community_info +
                             result.breakdown.delta_exchange +
                             result.breakdown.allreduce;
    const double total = result.breakdown.total();
    summary.add_row(
        {core::variant_label(cfg.variant, cfg.base.et_alpha),
         util::TextTable::fmt(result.modularity),
         util::TextTable::fmt(static_cast<long long>(result.phases)),
         util::TextTable::fmt(static_cast<long long>(result.total_iterations)),
         util::TextTable::fmt(result.seconds, 3),
         util::TextTable::fmt(result.messages),
         util::TextTable::fmt(total > 0 ? 100 * comm_time / total : 0, 1) + "%"});
  }
  summary.print(std::cout);

  // Per-phase view for the baseline (graph shrinkage + time split).
  std::cout << "\nBaseline per-phase detail:\n";
  const auto baseline = core::dist_louvain_inprocess(ranks, graph);
  util::TextTable phases({"phase", "vertices", "arcs", "iters", "modularity",
                          "ghost(s)", "cinfo(s)", "compute(s)", "delta(s)",
                          "allreduce(s)", "rebuild(s)"});
  for (const auto& ph : baseline.phase_telemetry) {
    phases.add_row({util::TextTable::fmt(static_cast<long long>(ph.phase)),
                    util::TextTable::fmt(static_cast<long long>(ph.graph_vertices)),
                    util::TextTable::fmt(static_cast<long long>(ph.graph_arcs)),
                    util::TextTable::fmt(static_cast<long long>(ph.iterations)),
                    util::TextTable::fmt(ph.modularity_after),
                    util::TextTable::fmt(ph.breakdown.ghost_exchange, 4),
                    util::TextTable::fmt(ph.breakdown.community_info, 4),
                    util::TextTable::fmt(ph.breakdown.compute, 4),
                    util::TextTable::fmt(ph.breakdown.delta_exchange, 4),
                    util::TextTable::fmt(ph.breakdown.allreduce, 4),
                    util::TextTable::fmt(ph.breakdown.rebuild, 4)});
  }
  phases.print(std::cout);
  return 0;
}
