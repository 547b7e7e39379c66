// Figs. 5a/5b and 6a/6b: convergence characteristics -- modularity growth
// per phase and iterations per phase -- for nlpkkt240 (Fig. 5; paper finds
// ET(0.25) better than ET(0.75): the aggressive variant needs 2.6x the
// phases) and web-cc12-PayLevelDomain (Fig. 6; the converse, ET(0.75)
// better). ETC variants track each other closely in both.
#include <fstream>
#include <iostream>

#include "bench/harness.hpp"
#include "core/dist_louvain.hpp"
#include "core/metrics.hpp"
#include "util/cli.hpp"

namespace {

/// Dump per-iteration series as CSV (one row per (graph, variant, phase,
/// iteration)) for external plotting of the figures.
void write_csv(const std::string& path, const std::string& graph,
               const std::vector<std::string>& labels,
               const std::vector<dlouvain::core::DistResult>& results, bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  if (!append)
    out << "graph,variant,phase,iteration,modularity,active,moved,inactive\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (const auto& phase : results[i].phase_telemetry) {
      for (const auto& it : phase.iteration_detail) {
        out << graph << ',' << labels[i] << ',' << phase.phase << ',' << it.iteration
            << ',' << it.modularity << ',' << it.active_vertices << ','
            << it.moved_vertices << ',' << it.inactive_vertices << '\n';
      }
    }
  }
}

/// Accumulate one run manifest (docs/OBSERVABILITY.md) into the JSON array
/// written by --metrics-out, tagged with its graph and variant label.
void append_manifest(std::string& out, const std::string& graph,
                     const std::string& label,
                     const dlouvain::core::DistResult& result) {
  if (out.empty())
    out += "[";
  else
    out += ",";
  out += "\n{\"graph\":\"" + dlouvain::core::json_escape(graph) +
         "\",\"variant\":\"" + dlouvain::core::json_escape(label) +
         "\",\"manifest\":" + dlouvain::core::dist_result_to_json(result) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlouvain;

  util::Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.5, "surrogate size multiplier");
  const int ranks = cli.get_int<int>("ranks", 8, "in-process ranks");
  const auto csv = cli.get_string("csv", "", "write per-iteration series to CSV");
  const auto metrics_out =
      cli.get_string("metrics-out", "", "write a JSON array of run manifests here");
  if (!cli.finish()) return 1;
  std::string manifests;

  bench::banner("Figs. 5-6: convergence characteristics (modularity & iterations per phase)",
                "nlpkkt240 and web-cc12-PayLevelDomain on 64 processes",
                "surrogates at scale " + util::TextTable::fmt(scale, 2) + ", " +
                    std::to_string(ranks) + " ranks");

  const std::vector<core::DistConfig> variants = {
      core::DistConfig::baseline(), core::DistConfig::et(0.25), core::DistConfig::et(0.75),
      core::DistConfig::etc(0.25), core::DistConfig::etc(0.75)};

  for (const std::string name : {"nlpkkt240", "web-cc12-PayLevelDomain"}) {
    const auto csr = bench::surrogate_csr(name, scale);
    std::cout << (name == "nlpkkt240" ? "Fig. 5" : "Fig. 6") << ": " << name << " ("
              << csr.num_vertices() << " vertices, " << csr.num_arcs() / 2 << " edges)\n";

    // Collect runs first so both sub-figures come from the same executions.
    std::vector<core::DistResult> results;
    results.reserve(variants.size());
    for (const auto& cfg : variants) {
      results.push_back(core::dist_louvain_inprocess(ranks, csr, cfg));
      if (!metrics_out.empty())
        append_manifest(manifests, name, bench::label_of(cfg), results.back());
    }

    if (!csv.empty()) {
      std::vector<std::string> labels;
      for (const auto& cfg : variants) labels.push_back(bench::label_of(cfg));
      write_csv(csv, name, labels, results, /*append=*/name != "nlpkkt240");
      std::cout << "(per-iteration series appended to " << csv << ")\n";
    }

    std::size_t max_phases = 0;
    for (const auto& r : results) max_phases = std::max(max_phases, r.phase_telemetry.size());

    std::cout << "(a) modularity after each phase:\n";
    std::vector<std::string> headers{"phase"};
    for (const auto& cfg : variants) headers.push_back(bench::label_of(cfg));
    util::TextTable mod_table(headers);
    for (std::size_t ph = 0; ph < max_phases; ++ph) {
      std::vector<std::string> row{util::TextTable::fmt(static_cast<std::int64_t>(ph))};
      for (const auto& r : results)
        row.push_back(ph < r.phase_telemetry.size()
                          ? util::TextTable::fmt(r.phase_telemetry[ph].modularity_after, 4)
                          : "-");
      mod_table.add_row(std::move(row));
    }
    mod_table.print(std::cout);

    std::cout << "(b) iterations per phase:\n";
    util::TextTable it_table(headers);
    for (std::size_t ph = 0; ph < max_phases; ++ph) {
      std::vector<std::string> row{util::TextTable::fmt(static_cast<std::int64_t>(ph))};
      for (const auto& r : results)
        row.push_back(ph < r.phase_telemetry.size()
                          ? util::TextTable::fmt(
                                static_cast<std::int64_t>(r.phase_telemetry[ph].iterations))
                          : "-");
      it_table.add_row(std::move(row));
    }
    it_table.print(std::cout);

    util::TextTable summary({"variant", "phases", "total iterations", "time (s)",
                             "modularity"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
      summary.add_row({bench::label_of(variants[i]),
                       util::TextTable::fmt(results[i].phases),
                       util::TextTable::fmt(results[i].total_iterations),
                       util::TextTable::fmt(results[i].seconds, 3),
                       util::TextTable::fmt(results[i].modularity, 4)});
    }
    summary.print(std::cout);
    std::cout << '\n';
  }

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + metrics_out);
    out << manifests << "\n]\n";
    std::cout << "(run manifests written to " << metrics_out << ")\n";
  }
  return 0;
}
