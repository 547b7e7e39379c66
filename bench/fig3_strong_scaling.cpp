// Fig. 3 + Table IV (+ the Section V-A breakdown): strong scaling of all six
// variants over the Table II graph roster.
//
// Fig. 3 in the paper plots execution time vs process count (16..4096) for
// every graph; Table IV derives the best speedup over Baseline and which
// variant achieved it. This harness reruns the full (graph x variant x
// ranks) grid at simulator scale, prints one time-series block per graph,
// then the Table IV summary, then (with --breakdown) the time-bucket split
// the paper obtained from HPCToolkit (34% community communication / 40%
// all-reduce / 22% compute on soc-friendster).
#include <iostream>
#include <limits>
#include <map>

#include "bench/harness.hpp"
#include "core/dist_louvain.hpp"
#include "util/cli.hpp"

namespace {

int run(dlouvain::util::Cli& cli) {
  using namespace dlouvain;

  const double scale = cli.get_double("scale", 1.0, "surrogate size multiplier");
  const auto ranks = cli.get_int_list("ranks", {2, 4, 8}, "rank counts to sweep");
  const auto only = cli.get_string("graphs", "", "comma list of graph names (default all)");
  const bool breakdown = cli.get_flag("breakdown", false, "print the V-A time split");
  if (!cli.finish()) return 1;

  bench::banner("Fig. 3 + Table IV: strong scaling, all variants, all graphs",
                "NERSC Cori, 16-4096 processes, graphs of 42.7M-3.3B edges",
                "in-process ranks " + [&] {
                  std::string s;
                  for (auto r : ranks) s += std::to_string(r) + " ";
                  return s;
                }() + ", surrogates at scale " + util::TextTable::fmt(scale, 2));

  const auto variants = bench::paper_variants();

  struct Best {
    double baseline_low_p{0};
    double fastest{std::numeric_limits<double>::max()};
    std::string fastest_label;
  };
  std::map<std::string, Best> table4;

  for (const auto& info : gen::table2_catalog()) {
    if (!only.empty() && only.find(info.name) == std::string::npos) continue;
    const auto csr = bench::surrogate_csr(info.name, scale);
    std::cout << info.name << " (" << csr.num_vertices() << " vertices, "
              << csr.num_arcs() / 2 << " edges)\n";

    std::vector<std::string> headers{"variant"};
    for (const auto r : ranks) headers.push_back("p=" + std::to_string(r) + " (s)");
    headers.push_back("modularity");
    util::TextTable table(headers);

    auto& best = table4[info.name];
    for (const auto& cfg : variants) {
      std::vector<std::string> row{bench::label_of(cfg)};
      double modularity = 0;
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        util::WallTimer timer;
        const auto result =
            core::dist_louvain_inprocess(static_cast<int>(ranks[i]), csr, cfg);
        const double seconds = timer.seconds();
        modularity = result.modularity;
        row.push_back(util::TextTable::fmt(seconds, 3));
        if (cfg.variant == core::Variant::kBaseline && i == 0)
          best.baseline_low_p = seconds;
        if (seconds < best.fastest) {
          best.fastest = seconds;
          best.fastest_label = bench::label_of(cfg);
        }
      }
      row.push_back(util::TextTable::fmt(modularity, 4));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // Table IV: best speedup over the low-process Baseline per graph.
  std::cout << "Table IV: versions yielding the best performance over Baseline\n";
  util::TextTable t4({"Graphs", "Best speedup", "Version"});
  for (const auto& [name, best] : table4) {
    if (best.fastest <= 0) continue;
    t4.add_row({name, util::TextTable::fmt(best.baseline_low_p / best.fastest, 2) + "x",
                best.fastest_label});
  }
  t4.print(std::cout);

  if (breakdown) {
    std::cout << "\nSection V-A time breakdown (Baseline on soc-friendster):\n";
    const auto csr = bench::surrogate_csr("soc-friendster", scale);
    const auto result = core::dist_louvain_inprocess(
        static_cast<int>(ranks.back()), csr, core::DistConfig::baseline());
    const auto& b = result.breakdown;
    const double total = b.total();
    util::TextTable split({"bucket", "seconds", "share", "paper share"});
    const double comm = b.ghost_exchange + b.community_info + b.delta_exchange;
    split.add_row({"community communication", util::TextTable::fmt(comm, 4),
                   util::TextTable::fmt(100 * comm / total, 1) + "%", "~34%"});
    split.add_row({"modularity all-reduce", util::TextTable::fmt(b.allreduce, 4),
                   util::TextTable::fmt(100 * b.allreduce / total, 1) + "%", "~40%"});
    split.add_row({"computation", util::TextTable::fmt(b.compute, 4),
                   util::TextTable::fmt(100 * b.compute / total, 1) + "%", "~22%"});
    split.add_row({"graph rebuild", util::TextTable::fmt(b.rebuild, 4),
                   util::TextTable::fmt(100 * b.rebuild / total, 1) + "%", "~1%"});
    split.print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dlouvain::util::run_main(argc, argv, run); }
