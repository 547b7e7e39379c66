// dlouvain_gen: generate synthetic graphs and write them in the binary
// edge-list format (plus optional ground truth), producing inputs for
// dlouvain_cli --input and the bench harnesses.
//
//   dlouvain_gen --family lfr --n 100000 --mu 0.2 --out graph.dlel --truth gt.txt
//   dlouvain_gen --family ssca2 --n 50000 --max-clique 100 --out weak.dlel
//   dlouvain_gen --family surrogate --name soc-friendster --scale 2 --out fs.dlel
#include <fstream>
#include <iostream>

#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "gen/ssca2.hpp"
#include "gen/surrogate.hpp"
#include "graph/binary_io.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const auto family = cli.get_string(
      "family", "lfr", "lfr|ssca2|rmat|er|ws|banded|planted|karate|surrogate");
  const VertexId n = cli.get_int("n", 10000, "vertices");
  const double mu = cli.get_double("mu", 0.2, "LFR mixing");
  const double deg = cli.get_double("deg", 20, "average degree (lfr/er/ws)");
  const VertexId max_clique = cli.get_int("max-clique", 100, "SSCA#2 clique cap");
  const auto name = cli.get_string("name", "soc-friendster", "surrogate name");
  const double scale = cli.get_double("scale", 1.0, "surrogate scale");
  const auto seed = cli.get_int<std::uint64_t>("seed", 42, "");
  const auto out = cli.get_string("out", "graph.dlel", "output path");
  const auto truth = cli.get_string("truth", "", "ground-truth output path (optional)");
  if (!cli.finish()) return 1;

  gen::GeneratedGraph graph;
  try {
    if (family == "lfr") {
      gen::LfrParams p;
      p.num_vertices = n;
      p.avg_degree = deg;
      p.max_degree = static_cast<VertexId>(deg * 3);
      p.mu = mu;
      p.max_community = std::max<VertexId>(40, n / 20);
      p.seed = seed;
      graph = gen::lfr(p);
    } else if (family == "ssca2") {
      gen::Ssca2Params p;
      p.num_vertices = n;
      p.max_clique_size = max_clique;
      p.seed = seed;
      graph = gen::ssca2(p);
    } else if (family == "rmat") {
      gen::RmatParams p;
      p.scale = 1;
      while ((VertexId{1} << p.scale) < n) ++p.scale;
      p.seed = seed;
      graph = gen::rmat(p);
    } else if (family == "er") {
      graph = gen::erdos_renyi(n, deg / static_cast<double>(n - 1), seed);
    } else if (family == "ws") {
      graph = gen::watts_strogatz(n, static_cast<VertexId>(deg) & ~VertexId{1}, 0.1, seed);
    } else if (family == "banded") {
      graph = gen::banded(n, static_cast<VertexId>(deg / 2));
    } else if (family == "planted") {
      graph = gen::planted_partition(n, 8, 0.2, 0.01, seed);
    } else if (family == "karate") {
      graph = gen::karate_club();
    } else if (family == "surrogate") {
      graph = gen::surrogate(name, scale, seed);
    } else {
      std::cerr << "dlouvain_gen: unknown --family '" << family << "'\n";
      return 1;
    }
  } catch (const std::exception& err) {
    std::cerr << "dlouvain_gen: " << err.what() << '\n';
    return 1;
  }

  graph::write_binary(out, graph.num_vertices, graph.edges);
  std::cout << "wrote " << out << ": " << graph.name << ", " << graph.num_vertices
            << " vertices, " << graph.num_edges() << " edges\n";

  if (!truth.empty()) {
    if (graph.ground_truth.empty()) {
      std::cerr << "dlouvain_gen: family '" << family << "' has no ground truth\n";
      return 1;
    }
    std::ofstream file(truth);
    if (!file) {
      std::cerr << "dlouvain_gen: cannot open " << truth << '\n';
      return 1;
    }
    for (std::size_t v = 0; v < graph.ground_truth.size(); ++v)
      file << v << ' ' << graph.ground_truth[v] << '\n';
    std::cout << "wrote " << truth << " (ground truth)\n";
  }
  return 0;
}
