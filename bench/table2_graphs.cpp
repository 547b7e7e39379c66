// Table II: the test-graph roster with the modularity reported by the
// single-threaded shared-memory implementation (the paper's "as reported by
// Grappolo (using 1 thread)" column), against the paper's published values.
#include <iostream>

#include "bench/harness.hpp"
#include "gen/surrogate.hpp"
#include "louvain/shared.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const double scale = cli.get_double("scale", 1.0, "surrogate size multiplier");
  if (!cli.finish()) return 1;

  bench::banner("Table II: test graphs (ascending edge order) + Grappolo-1T modularity",
                "12 real-world graphs, 42.7M to 3.3B edges",
                "structure-matched surrogates at scale " + util::TextTable::fmt(scale, 2));

  util::TextTable table({"Graphs", "#Vertices", "#Edges", "Modularity",
                         "paper #V", "paper #E", "paper Mod", "structure"});
  for (const auto& info : gen::table2_catalog()) {
    const auto csr = bench::surrogate_csr(info.name, scale);
    const auto result = louvain::louvain_shared(csr, {}, /*num_threads=*/1);
    table.add_row({info.name,
                   util::TextTable::fmt(csr.num_vertices()),
                   util::TextTable::fmt(csr.num_arcs() / 2),
                   util::TextTable::fmt(result.modularity, 3),
                   util::TextTable::fmt(info.paper_vertices / 1e6, 1) + "M",
                   util::TextTable::fmt(info.paper_edges / 1e6, 1) + "M",
                   util::TextTable::fmt(info.paper_modularity, 3),
                   info.structure});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
