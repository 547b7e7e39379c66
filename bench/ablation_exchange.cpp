// Ablation for the ghost exchange:
//  * topology -- sparse neighbourhood collective (the paper's planned MPI-3
//    upgrade, Section VI) vs dense all-to-all. Payload bytes are identical;
//    the sparse path sends O(sum of rank degrees) messages instead of
//    O(p^2) per exchange, which matters most on spatially local graphs
//    (banded meshes) where each rank borders only two others.
//  * wire format -- each ghost update ships as a full mirror list (dense)
//    or as changed entries only (delta), picked per destination and round;
//    the table reports how the ghost bytes split between the two formats.
#include <iostream>

#include "bench/harness.hpp"
#include "comm/world.hpp"
#include "core/dist_louvain.hpp"
#include "gen/simple.hpp"
#include "graph/csr.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const auto rank_list = cli.get_int_list("ranks", {4, 8, 16}, "rank counts");
  const double scale = cli.get_double("scale", 0.5, "surrogate size multiplier");
  if (!cli.finish()) return 1;

  bench::banner("Ablation: neighbourhood collectives vs dense all-to-all ghost exchange",
                "paper Section VI: 'we are considering neighborhood collective "
                "operations introduced in MPI-3'",
                "message counts for full Louvain runs, surrogates at scale " +
                    util::TextTable::fmt(scale, 2));

  util::TextTable table({"graph", "ranks", "avg rank degree", "msgs (sparse)",
                         "msgs (dense)", "reduction"});

  for (const std::string name : {"channel", "soc-friendster"}) {
    const auto csr = bench::surrogate_csr(name, scale);
    for (const auto p : rank_list) {
      double rank_degree = 0;
      comm::run(static_cast<int>(p), [&](comm::Comm& comm) {
        const auto dist = graph::DistGraph::from_replicated(comm, csr);
        const auto total = comm.allreduce_sum<std::int64_t>(
            static_cast<std::int64_t>(dist.neighbor_ranks().size()));
        if (comm.is_root()) rank_degree = static_cast<double>(total) / static_cast<double>(p);
      });

      auto traffic = [&](bool sparse) {
        core::DistConfig cfg;
        cfg.use_neighbor_exchange = sparse;
        std::int64_t messages = 0;
        comm::run(static_cast<int>(p), [&](comm::Comm& comm) {
          auto dist = graph::DistGraph::from_replicated(comm, csr);
          auto result = core::dist_louvain(comm, std::move(dist), cfg);
          if (comm.is_root()) messages = result.messages;
        });
        return messages;
      };
      const auto sparse = traffic(true);
      const auto dense = traffic(false);
      table.add_row({name, util::TextTable::fmt(p),
                     util::TextTable::fmt(rank_degree, 1),
                     util::TextTable::fmt(sparse), util::TextTable::fmt(dense),
                     util::TextTable::fmt(100.0 * (1.0 - static_cast<double>(sparse) /
                                                             static_cast<double>(dense)),
                                          1) +
                         "%"});
    }
  }
  table.print(std::cout);

  bench::banner("Ghost-update wire format: the per-destination dense/delta pick",
                "changed-entries-only updates once most vertices stop moving",
                "ghost bytes by format for full Louvain runs, surrogates at scale " +
                    util::TextTable::fmt(scale, 2));

  util::TextTable wire({"graph", "ranks", "bytes", "ghost dense", "ghost delta",
                        "delta share", "modularity"});
  for (const std::string name : {"channel", "soc-friendster"}) {
    const auto csr = bench::surrogate_csr(name, scale);
    for (const auto p : rank_list) {
      core::DistResult result;
      comm::run(static_cast<int>(p), [&](comm::Comm& comm) {
        auto dist = graph::DistGraph::from_replicated(comm, csr);
        auto r = core::dist_louvain(comm, std::move(dist), core::DistConfig{});
        if (comm.is_root()) result = std::move(r);
      });
      const auto dense = result.counters[util::Counter::kGhostBytesDense];
      const auto delta = result.counters[util::Counter::kGhostBytesDelta];
      wire.add_row({name, util::TextTable::fmt(p), util::TextTable::fmt(result.bytes),
                    util::TextTable::fmt(dense), util::TextTable::fmt(delta),
                    util::TextTable::fmt(100.0 * static_cast<double>(delta) /
                                             static_cast<double>(dense + delta),
                                         1) +
                        "%",
                    util::TextTable::fmt(result.modularity, 6)});
    }
  }
  wire.print(std::cout);
  return 0;
}
