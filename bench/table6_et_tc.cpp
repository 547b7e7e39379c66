// Table VI: ET(0.25) vs ET(0.25)+Threshold Cycling on soc-friendster across
// process counts. The paper measures a consistent ~10-12% gain from adding
// threshold cycling to ET.
#include <iostream>

#include "bench/harness.hpp"
#include "core/dist_louvain.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.6, "surrogate size multiplier");
  const auto ranks = cli.get_int_list("ranks", {2, 4, 8, 16}, "rank counts");
  const int repeats = cli.get_int<int>("repeats", 3, "timing repeats (min)");
  if (!cli.finish()) return 1;

  bench::banner("Table VI: ET(0.25) combined with Threshold Cycling (soc-friendster)",
                "256-4096 processes on Cori; ~10-12% gain from adding TC",
                "soc-friendster surrogate at scale " + util::TextTable::fmt(scale, 2));

  const auto csr = bench::surrogate_csr("soc-friendster", scale);
  std::cout << "graph: " << csr.num_vertices() << " vertices, " << csr.num_arcs() / 2
            << " edges\n\n";

  const auto et = core::DistConfig::et(0.25);
  auto et_tc = core::DistConfig::et(0.25);
  et_tc.add_threshold_cycling = true;

  auto timed = [&](int p, const core::DistConfig& cfg) {
    double best = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      util::WallTimer timer;
      (void)core::dist_louvain_inprocess(p, csr, cfg);
      const double s = timer.seconds();
      if (rep == 0 || s < best) best = s;
    }
    return best;
  };

  util::TextTable table({"Processes", "Execution time ET(0.25) (secs.)",
                         "Execution time ET(0.25)+TC (secs.)", "relative gain"});
  for (const auto p : ranks) {
    const double t_et = timed(static_cast<int>(p), et);
    const double t_et_tc = timed(static_cast<int>(p), et_tc);
    const double gain = t_et > 0 ? 100.0 * (t_et - t_et_tc) / t_et : 0;
    table.add_row({util::TextTable::fmt(p),
                   util::TextTable::fmt(t_et, 3),
                   util::TextTable::fmt(t_et_tc, 3),
                   util::TextTable::fmt(gain, 1) + "%"});
  }
  table.print(std::cout);
  return 0;
}
