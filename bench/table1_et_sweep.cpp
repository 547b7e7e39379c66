// Table I: the early-termination alpha sweep on the shared-memory
// (Grappolo-style) implementation, inputs CNR (small world) and Channel
// (banded). For each alpha in {1.0, 0.9, ..., 0.0}: modularity, run time,
// and total iterations. The paper's headline: runtime drops as alpha -> 1
// (2x on CNR, 58x on Channel) with negligible modularity loss.
//
// Also regenerates the Section V-C follow-up: the DISTRIBUTED ET version on
// CNR across the same alpha range, where the paper measured a more modest
// ~6.7% runtime improvement (0.523 s -> 0.488 s) driven by an iteration
// reduction from 37 to 24.
#include <iostream>

#include "bench/harness.hpp"
#include "core/dist_louvain.hpp"
#include "gen/surrogate.hpp"
#include "louvain/shared.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const double scale = cli.get_double("scale", 4.0, "surrogate size multiplier");
  const int threads = cli.get_int<int>("threads", 8, "compute threads");
  const int repeats = cli.get_int<int>("repeats", 3, "timing repeats (min taken)");
  const auto cli_ranks = cli.get_int("ranks", 4, "ranks for the distributed V-C section");
  if (!cli.finish()) return 1;

  bench::banner("Table I: adaptive early termination, shared-memory implementation",
                "8 cores of an Intel Xeon; CNR (325K vertices) and Channel (4.8M)",
                "1-core host, " + std::to_string(threads) + " compute threads, surrogate "
                "graphs at scale " + util::TextTable::fmt(scale, 2));

  for (const auto& info : gen::table1_catalog()) {
    const auto csr = bench::surrogate_csr(info.name, scale);
    std::cout << "Input: " << info.name << " (" << csr.num_vertices() << " vertices, "
              << csr.num_arcs() / 2 << " edges; paper modularity band "
              << util::TextTable::fmt(info.paper_modularity, 3) << ")\n";

    util::TextTable table({"alpha", "Modularity", "Time (in sec.)", "No. iterations"});
    for (int tenths = 10; tenths >= 0; --tenths) {
      const double alpha = tenths / 10.0;
      louvain::LouvainConfig cfg;
      cfg.early_termination = alpha > 0.0;
      cfg.et_alpha = alpha;

      double best_seconds = 0;
      louvain::LouvainResult result;
      for (int rep = 0; rep < repeats; ++rep) {
        util::WallTimer timer;
        result = louvain::louvain_shared(csr, cfg, threads);
        const double s = timer.seconds();
        if (rep == 0 || s < best_seconds) best_seconds = s;
      }
      table.add_row({util::TextTable::fmt(alpha, 1),
                     util::TextTable::fmt(result.modularity, 5),
                     util::TextTable::fmt(best_seconds, 3),
                     util::TextTable::fmt(result.total_iterations)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // Section V-C: the distributed ET version on CNR, alpha 0 -> 1 (paper:
  // ~6.7% time reduction, iterations 37 -> 24, modularity consistent to the
  // second decimal).
  const int ranks = static_cast<int>(cli_ranks);
  std::cout << "Section V-C: distributed ET on CNR (" << ranks << " ranks)\n";
  const auto cnr = bench::surrogate_csr("CNR", scale);
  util::TextTable dist_table({"alpha", "Modularity", "Time (in sec.)", "No. iterations"});
  for (int tenths = 10; tenths >= 0; --tenths) {
    const double alpha = tenths / 10.0;
    const auto cfg = alpha > 0.0 ? core::DistConfig::et(alpha) : core::DistConfig::baseline();
    double best_seconds = 0;
    core::DistResult result;
    for (int rep = 0; rep < repeats; ++rep) {
      util::WallTimer timer;
      result = core::dist_louvain_inprocess(ranks, cnr, cfg);
      const double s = timer.seconds();
      if (rep == 0 || s < best_seconds) best_seconds = s;
    }
    dist_table.add_row({util::TextTable::fmt(alpha, 1),
                        util::TextTable::fmt(result.modularity, 5),
                        util::TextTable::fmt(best_seconds, 3),
                        util::TextTable::fmt(result.total_iterations)});
  }
  dist_table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
