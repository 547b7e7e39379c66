// Table VII: quality against LFR ground truth -- precision and F-score for
// five network sizes; the paper reports recall 1.0 throughout, precision
// falling gently from 0.98 toward 0.90 as the networks grow.
#include <iostream>

#include "bench/harness.hpp"
#include "core/dist_louvain.hpp"
#include "gen/lfr.hpp"
#include "graph/csr.hpp"
#include "quality/fscore.hpp"
#include "quality/nmi.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const auto sizes = cli.get_int_list("sizes", {1000, 1700, 2800, 4200, 5600},
                                      "LFR network sizes (vertices)");
  const int ranks = cli.get_int<int>("ranks", 4, "in-process ranks");
  const double mu = cli.get_double("mu", 0.12, "LFR mixing parameter");
  if (!cli.finish()) return 1;

  bench::banner("Table VII: quality vs LFR ground truth",
                "LFR networks of 350K-2M vertices on 32 processes; recall = 1.0",
                "LFR-style networks, mu=" + util::TextTable::fmt(mu, 2) + ", " +
                    std::to_string(ranks) + " ranks");

  util::TextTable table({"#Vertices", "#Edges", "Precision", "Recall", "F-score",
                         "NMI", "truth comms", "found comms"});
  for (const auto n : sizes) {
    gen::LfrParams params;
    params.num_vertices = n;
    params.avg_degree = 24;
    params.max_degree = 72;
    params.mu = mu;
    params.min_community = 20;
    params.max_community = std::max<VertexId>(60, n / 20);
    params.seed = 99 + static_cast<std::uint64_t>(n);
    const auto generated = gen::lfr(params);
    const auto csr = graph::from_edges(generated.num_vertices, generated.edges);

    const auto result = core::dist_louvain_inprocess(ranks, csr);
    const auto scores =
        quality::compare_to_ground_truth(result.community, generated.ground_truth);
    table.add_row({util::TextTable::fmt(csr.num_vertices()),
                   util::TextTable::fmt(csr.num_arcs() / 2),
                   util::TextTable::fmt(scores.precision, 6),
                   util::TextTable::fmt(scores.recall, 6),
                   util::TextTable::fmt(scores.f_score, 6),
                   util::TextTable::fmt(quality::normalized_mutual_information(
                                            result.community, generated.ground_truth),
                                        4),
                   util::TextTable::fmt(static_cast<std::int64_t>(scores.ground_truth_communities)),
                   util::TextTable::fmt(static_cast<std::int64_t>(scores.detected_communities))});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
