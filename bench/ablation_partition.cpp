// Ablation for DESIGN.md decision #2: the paper's edge-balanced 1D input
// distribution vs a naive vertex-balanced split. On skewed-degree graphs the
// edge-balanced split evens out per-rank arc counts (the compute load) at
// the cost of uneven vertex counts; this harness reports both balances, the
// ghost footprint, and end-to-end Louvain time under each policy.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench/harness.hpp"
#include "comm/world.hpp"
#include "core/dist_louvain.hpp"
#include "graph/dist_graph.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.5, "surrogate size multiplier");
  const int ranks = cli.get_int<int>("ranks", 4, "in-process ranks");
  if (!cli.finish()) return 1;

  bench::banner("Ablation: edge-balanced vs vertex-balanced 1D partition",
                "the paper distributes so 'each process receives roughly the same "
                "number of edges'",
                std::to_string(ranks) + " ranks, surrogates at scale " +
                    util::TextTable::fmt(scale, 2));

  util::TextTable table({"graph", "policy", "max/mean arcs", "max/mean vertices",
                         "ghosts total", "louvain (s)", "modularity"});

  for (const std::string name : {"soc-friendster", "com-orkut", "channel"}) {
    const auto csr = bench::surrogate_csr(name, scale);
    for (const auto kind :
         {graph::PartitionKind::kEvenEdges, graph::PartitionKind::kEvenVertices}) {
      std::vector<EdgeId> arcs(static_cast<std::size_t>(ranks));
      std::vector<VertexId> verts(static_cast<std::size_t>(ranks));
      std::int64_t ghosts_total = 0;
      comm::run(ranks, [&](comm::Comm& comm) {
        const auto dist = graph::DistGraph::from_replicated(comm, csr, kind);
        arcs[static_cast<std::size_t>(comm.rank())] = dist.local().num_arcs();
        verts[static_cast<std::size_t>(comm.rank())] = dist.local_count();
        const auto total = comm.allreduce_sum<std::int64_t>(
            static_cast<std::int64_t>(dist.ghosts().size()));
        if (comm.is_root()) ghosts_total = total;
      });

      util::WallTimer timer;
      const auto result = core::dist_louvain_inprocess(ranks, csr, {}, kind);
      const double seconds = timer.seconds();

      const double arc_mean =
          static_cast<double>(std::accumulate(arcs.begin(), arcs.end(), EdgeId{0})) / ranks;
      const double vert_mean =
          static_cast<double>(std::accumulate(verts.begin(), verts.end(), VertexId{0})) /
          ranks;
      const double arc_imb =
          arc_mean > 0 ? static_cast<double>(*std::max_element(arcs.begin(), arcs.end())) / arc_mean : 0;
      const double vert_imb =
          vert_mean > 0
              ? static_cast<double>(*std::max_element(verts.begin(), verts.end())) / vert_mean
              : 0;

      table.add_row({name,
                     kind == graph::PartitionKind::kEvenEdges ? "even-edges" : "even-vertices",
                     util::TextTable::fmt(arc_imb, 3),
                     util::TextTable::fmt(vert_imb, 3),
                     util::TextTable::fmt(ghosts_total),
                     util::TextTable::fmt(seconds, 3),
                     util::TextTable::fmt(result.modularity, 4)});
    }
  }
  table.print(std::cout);
  return 0;
}
