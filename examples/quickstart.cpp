// Quickstart: the smallest end-to-end use of the library.
//
//   1. build a graph (here: 4 cliques chained together),
//   2. describe the run with a Plan (distributed, 4 in-process ranks),
//   3. print the communities and the modularity.
//
//   $ ./quickstart [--ranks 4] [--threads 1]
#include <iostream>
#include <map>
#include <vector>

#include "dlouvain.hpp"
#include "gen/simple.hpp"
#include "graph/csr.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const int ranks = cli.get_int<int>("ranks", 4, "in-process ranks");
  const int threads = cli.get_int<int>("threads", 1, "compute threads per rank");
  if (!cli.finish()) return 1;

  // A graph with obvious structure: 4 cliques of 5 vertices, linked in a
  // chain by single bridge edges.
  const auto generated = gen::clique_chain(/*num_cliques=*/4, /*clique_size=*/5);
  const auto graph = graph::from_edges(generated.num_vertices, generated.edges);
  std::cout << "graph: " << graph.num_vertices() << " vertices, "
            << graph.num_arcs() / 2 << " edges\n";

  // Describe the run with a Plan and execute it. Each in-process rank owns a
  // slice of the graph exactly as MPI ranks would; `threads` sets the
  // per-rank compute pool and never changes the result.
  const auto result = Plan::distributed(ranks).threads(threads).run(graph);

  std::cout << "ranks:       " << ranks << '\n'
            << "communities: " << result.num_communities << '\n'
            << "modularity:  " << result.modularity << '\n'
            << "phases:      " << result.phases << " (" << result.total_iterations
            << " iterations)\n\n";

  std::map<CommunityId, std::vector<VertexId>> members;
  for (std::size_t v = 0; v < result.community.size(); ++v)
    members[result.community[v]].push_back(static_cast<VertexId>(v));
  for (const auto& [community, vertices] : members) {
    std::cout << "community " << community << ":";
    for (const auto v : vertices) std::cout << ' ' << v;
    std::cout << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
