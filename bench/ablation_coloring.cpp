// Ablation for the paper's Section VI future-work heuristic: distance-1
// coloring of the sweep. Colored sweeps guarantee that vertices deciding
// concurrently across ranks are mutually non-adjacent (no stale-neighbour
// decisions), at the price of one ghost/community refresh per color class
// per iteration. This harness compares convergence (iterations, phases),
// quality, and communication volume with and without coloring.
#include <iostream>

#include "bench/harness.hpp"
#include "comm/world.hpp"
#include "core/coloring.hpp"
#include "core/dist_louvain.hpp"
#include "graph/dist_graph.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const double scale = cli.get_double("scale", 0.5, "surrogate size multiplier");
  const int ranks = cli.get_int<int>("ranks", 4, "in-process ranks");
  if (!cli.finish()) return 1;

  bench::banner("Ablation: distance-1 colored sweeps (paper Section VI future work)",
                "'may lead to faster convergence' -- Grappolo's coloring heuristic",
                std::to_string(ranks) + " ranks, surrogates at scale " +
                    util::TextTable::fmt(scale, 2));

  util::TextTable table({"graph", "mode", "colors", "phases", "iterations",
                         "time (s)", "messages", "modularity"});

  for (const std::string name : {"channel", "com-orkut", "soc-friendster", "uk-2007"}) {
    const auto csr = bench::surrogate_csr(name, scale);

    // Report the color count once per graph.
    std::int64_t colors = 0;
    comm::run(ranks, [&](comm::Comm& comm) {
      const auto dist = graph::DistGraph::from_replicated(comm, csr);
      const auto coloring = core::distance1_coloring(comm, dist);
      if (comm.is_root()) colors = coloring.num_colors;
    });

    for (const bool colored : {false, true}) {
      core::DistConfig cfg;
      cfg.use_coloring = colored;
      util::WallTimer timer;
      const auto result = core::dist_louvain_inprocess(ranks, csr, cfg);
      table.add_row({name, colored ? "colored" : "plain",
                     colored ? util::TextTable::fmt(colors) : "-",
                     util::TextTable::fmt(result.phases),
                     util::TextTable::fmt(result.total_iterations),
                     util::TextTable::fmt(timer.seconds(), 3),
                     util::TextTable::fmt(result.messages),
                     util::TextTable::fmt(result.modularity, 4)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(colored sweeps trade communication rounds for decisions that never"
               " act on stale neighbour state)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
