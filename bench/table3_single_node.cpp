// Table III: distributed vs shared memory on one node for soc-friendster,
// thread counts 4..64. The paper's shape: the pure shared-memory code is
// ~2.3x faster at 32 cores, but the distributed code scales better with
// thread count (4x from 4->64 threads vs 2x for shared).
//
// On this 1-core host absolute scaling cannot appear (see EXPERIMENTS.md);
// the harness still exercises exactly the two code paths at every size and
// reports quality parity (the paper's "modularity difference under 1%").
#include <iostream>

#include "bench/harness.hpp"
#include "core/dist_louvain.hpp"
#include "louvain/shared.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const double scale = cli.get_double("scale", 0.6, "surrogate size multiplier");
  const auto sizes = cli.get_int_list("threads", {4, 8, 16, 32, 64},
                                      "thread/rank counts to sweep");
  if (!cli.finish()) return 1;

  bench::banner("Table III: distributed vs shared memory on a single node (soc-friendster)",
                "one Cori Haswell node, 4-64 threads, 1.8B edges",
                "soc-friendster surrogate at scale " + util::TextTable::fmt(scale, 2) +
                    ", ranks-as-threads");

  const auto csr = bench::surrogate_csr("soc-friendster", scale);
  std::cout << "graph: " << csr.num_vertices() << " vertices, " << csr.num_arcs() / 2
            << " edges\n\n";

  util::TextTable table({"#Threads", "Distributed memory (sec.)", "Shared memory (sec.)",
                         "dist modularity", "shared modularity"});
  for (const auto size : sizes) {
    util::WallTimer dist_timer;
    const auto dist = core::dist_louvain_inprocess(static_cast<int>(size), csr);
    const double dist_seconds = dist_timer.seconds();

    util::WallTimer shared_timer;
    const auto shared = louvain::louvain_shared(csr, {}, static_cast<int>(size));
    const double shared_seconds = shared_timer.seconds();

    table.add_row({util::TextTable::fmt(size),
                   util::TextTable::fmt(dist_seconds, 3),
                   util::TextTable::fmt(shared_seconds, 3),
                   util::TextTable::fmt(dist.modularity, 4),
                   util::TextTable::fmt(shared.modularity, 4)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
