// perfbench -- the end-to-end benchmark program of dlouvain.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out <dir>]
//
// Runs one workload (README.md) in a closed loop for `--seconds`, checks
// every output, and prints one JSON object as the last line of stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 emits the end-to-end metrics, --trace 1 the per-layer ones.
// A human-readable table of the same metrics, with sample counts, goes to
// stderr. The exit code is 1 when any correctness or exact-repeat check
// failed, 2 on a usage error.
//
// Everything is measured from outside the library: the benchmark times its
// own calls into the public API (gen::*, graph::from_edges, Plan::run,
// ServiceClient::call with the service::encode_*/decode_* codec) with spans,
// and reads the stage breakdown, phase telemetry and counters the run
// manifests already carry.
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dlouvain.hpp"
#include "gen/rmat.hpp"
#include "gen/surrogate.hpp"
#include "graph/csr.hpp"
#include "louvain/modularity.hpp"
#include "service/endpoint.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "util/prng.hpp"

namespace {

namespace dl = dlouvain;
using Clock = std::chrono::steady_clock;

// ---- small utilities -------------------------------------------------------

using dl::util::splitmix64;

/// Derives an independent input seed for `stream` from the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return dl::util::hash_combine(seed, stream);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Process CPU seconds (user + system, every thread) so far.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ---- spans -----------------------------------------------------------------

/// The benchmark's own spans around each public call: name, start, end and
/// the span that caused it. Kept in memory, written as a Chrome trace at the
/// end of a traced run. Thread-safe (the service workload has two clients).
class SpanLog {
 public:
  int open(const char* name, int parent = -1) {
    const double t = now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, parent, t, t, thread_slot()});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Ends span `id` and returns its duration in seconds.
  double close(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lk(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = t;
    return s.end - s.start;
  }

  /// Self seconds of every closed span named `name`: its duration minus the
  /// part its child spans cover.
  [[nodiscard]] std::vector<double> self_seconds(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) out.push_back(spans_[i].end - spans_[i].start - child[i]);
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name, s.thread, s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent);
      out << buf;
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write span trace " + path);
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start;
    double end;
    int thread;
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  int thread_slot() {
    const auto id = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i)
      if (threads_[i] == id) return static_cast<int>(i);
    threads_.push_back(id);
    return static_cast<int>(threads_.size()) - 1;
  }

  Clock::time_point origin_{Clock::now()};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

// ---- a minimal JSON reader for the run manifests ---------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind{Kind::kNull};
  bool boolean{false};
  double number{0};
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json& operator[](std::string_view key) const {
    for (const auto& [k, v] : object)
      if (k == key) return v;
    throw std::runtime_error("manifest lacks key \"" + std::string(key) + "\"");
  }
  [[nodiscard]] double num(std::string_view key) const {
    const Json& v = (*this)[key];
    if (v.kind != Kind::kNumber)
      throw std::runtime_error("manifest key \"" + std::string(key) + "\" is not a number");
    return v.number;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("manifest JSON: ") + what + " at byte " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::strchr(" \t\r\n", s_[pos_]) != nullptr) ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("truncated escape");
        c = s_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': pos_ += 4; c = '?'; break;  // manifests only escape control bytes
          default: break;
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  Json value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      v.kind = Json::Kind::kObject;
      ++pos_;
      if (consume('}')) return v;
      do {
        skip_ws();
        std::string key = string_body();
        expect(':');
        v.object.emplace_back(std::move(key), value());
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      v.kind = Json::Kind::kArray;
      ++pos_;
      if (consume(']')) return v;
      do v.array.push_back(value());
      while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = string_body();
    } else if (literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = Json::Kind::kBool;
    } else if (literal("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      const std::string token(s_.substr(pos_, std::min<std::size_t>(40, s_.size() - pos_)));
      char* end = nullptr;
      v.number = std::strtod(token.c_str(), &end);
      if (end == token.c_str()) fail("bad value");
      v.kind = Json::Kind::kNumber;
      pos_ += static_cast<std::size_t>(end - token.c_str());
    }
    return v;
  }

  std::string_view s_;
  std::size_t pos_{0};
};

// ---- metric series ---------------------------------------------------------

/// Named sample series; each metric is reduced from one at the end.
using Series = std::map<std::string, std::vector<double>>;

/// Per-layer samples of one distributed run, read from its manifest (the
/// stage breakdown, per-phase detail and counter catalog). `wall_s` is the
/// run's wall clock as the caller measured it.
void add_core_sample(Series& s, const Json& m, double wall_s) {
  const Json& b = m["breakdown"];
  const Json& c = m["counters"];
  const double stages = b.num("ghost_exchange") + b.num("community_info") + b.num("compute") +
                        b.num("delta_exchange") + b.num("allreduce") + b.num("rebuild");
  double later = 0;
  double lambda_max = 0;
  for (const Json& ph : m["phases_detail"].array) {
    if (ph.num("phase") >= 1) later += ph.num("seconds");
    lambda_max = std::max(lambda_max, ph.num("load_lambda"));
  }
  s["core.rebuild_s"].push_back(b.num("rebuild"));
  s["core.later_phases_s"].push_back(later);
  s["core.phases"].push_back(m.num("phases"));
  s["core.sweep_s"].push_back(b.num("compute"));
  s["core.sweep_busy_s"].push_back(b.num("compute_busy"));
  s["core.community_info_s"].push_back(b.num("community_info"));
  s["core.allreduce_s"].push_back(b.num("allreduce"));
  s["core.iterations"].push_back(m.num("total_iterations"));
  s["core.ghost_exchange_s"].push_back(b.num("ghost_exchange"));
  s["core.delta_exchange_s"].push_back(b.num("delta_exchange"));
  s["core.comm_hidden_s"].push_back(b.num("comm_hidden"));
  s["core.load_lambda_max"].push_back(lambda_max);
  s["core.unaccounted_s"].push_back(wall_s - stages);
  s["comm.messages"].push_back(c.num("comm.messages"));
  s["comm.bytes"].push_back(c.num("comm.bytes"));
  s["comm.duplicates_dropped"].push_back(c.num("comm.duplicates_dropped"));
  s["core.ghost_bytes_dense"].push_back(c.num("ghost.bytes_dense"));
  s["core.ghost_bytes_delta"].push_back(c.num("ghost.bytes_delta"));
  s["core.ledger_refresh_records"].push_back(c.num("ledger.refresh_records"));
  s["core.ledger_delta_records"].push_back(c.num("ledger.delta_records"));
}

// ---- the run's outcome -----------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Operations attempted and failed checks, with the first few failures for
/// the stderr report.
struct Tally {
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::vector<std::string> violations;

  void violation(const std::string& what) {
    ++failed;
    if (violations.size() < 8) violations.push_back(what);
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& v : other.violations)
      if (violations.size() < 8) violations.push_back(v);
  }
};

struct Outcome : Tally {
  std::vector<Metric> metrics;
  std::map<std::string, std::size_t> samples;  ///< sample count per timing

  void put(std::string name, double value, const char* unit) {
    metrics.push_back(Metric{std::move(name), value, unit});
  }
};

/// Every per-layer metric the benchmark declares, with its unit. A workload
/// emits all of them; a layer the workload does not run reads 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      {"gen.s", "s"},
      {"graph.csr_build_s", "s"},
      {"core.rebuild_s", "s"},
      {"core.later_phases_s", "s"},
      {"core.phases", "count"},
      {"core.sweep_s", "s"},
      {"core.sweep_busy_s", "s"},
      {"core.community_info_s", "s"},
      {"core.allreduce_s", "s"},
      {"core.iterations", "count"},
      {"core.move_ratio", "ratio"},
      {"core.ghost_exchange_s", "s"},
      {"core.delta_exchange_s", "s"},
      {"core.comm_hidden_s", "s"},
      {"core.load_lambda_max", "ratio"},
      {"core.unaccounted_s", "s"},
      {"comm.messages", "count"},
      {"comm.bytes", "bytes"},
      {"comm.duplicates_dropped", "count"},
      {"core.ghost_bytes_dense", "bytes"},
      {"core.ghost_bytes_delta", "bytes"},
      {"core.ledger_refresh_records", "count"},
      {"core.ledger_delta_records", "count"},
      {"session.compute_ms", "ms"},
      {"session.reactivated_per_update", "count"},
      {"session.reconverge_iters_per_update", "count"},
      {"session.fallback_frac", "ratio"},
      {"service.update_p50_ms", "ms"},
      {"service.update_p90_ms", "ms"},
      {"service.submit_p50_ms", "ms"},
      {"service.submit_p90_ms", "ms"},
      {"service.encode_ms", "ms"},
      {"service.decode_ms", "ms"},
      {"service.reply_bytes", "bytes"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.hit_ms", "ms"},
      {"service.miss_ms", "ms"},
      {"service.overhead_ms", "ms"},
      {"service.queue_depth_mean", "count"},
      {"trace.overhead_frac", "ratio"},
      {"bench.samples", "count"},
  };
  return catalog;
}

/// Emits the per-layer catalog: medians of the collected series, except
/// where `exact` already holds a value.
void put_per_layer(Outcome& out, const Series& series, const std::map<std::string, double>& exact) {
  for (const auto& [name, unit] : per_layer_catalog()) {
    double v = 0;
    if (auto it = exact.find(name); it != exact.end())
      v = it->second;
    else if (auto jt = series.find(name); jt != series.end())
      v = median(jt->second);
    out.put(name, v, unit);
  }
}

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool smoke{false};
  std::string out_dir{".bench_out"};
};

/// Mean seconds per "setup" span spent in spans named `name` (one set-up may
/// generate and build several graphs).
double per_setup(const SpanLog& spans, const std::string& name) {
  const std::size_t setups = spans.self_seconds("setup").size();
  double total = 0;
  for (double x : spans.self_seconds(name)) total += x;
  return setups ? total / static_cast<double>(setups) : 0.0;
}

// ---- batch workloads: back-to-back whole clusterings of pre-built CSRs ----

/// Graphs one batch run clusters in turn. Whole-run wall time varies by
/// ~10-20% between graphs drawn from different seeds (the number of phases
/// and iterations changes), so a run reports the mean over several graphs of
/// each graph's median, not the wall of a single graph.
constexpr int kBatchGraphs = 8;

struct BatchSpec {
  const char* name;
  bool lfr;  ///< soc-friendster LFR surrogate instead of R-MAT
  dl::Variant variant;
};

dl::gen::GeneratedGraph generate_batch_graph(const BatchSpec& spec, const Options& opt, int k) {
  const std::uint64_t seed = derive_seed(opt.seed, 1 + static_cast<std::uint64_t>(k));
  if (spec.lfr) return dl::gen::surrogate("soc-friendster", opt.smoke ? 1.0 : 20.0, seed);
  dl::gen::RmatParams p;
  p.scale = opt.smoke ? 12 : 16;
  p.edges_per_vertex = 8;
  p.a = 0.57;
  p.b = 0.19;
  p.c = 0.19;
  p.seed = seed;
  return dl::gen::rmat(p);
}

/// The determinism contract's exact-repeat fingerprint of one run.
struct RepeatKey {
  double modularity;
  int phases;
  long iterations;
  std::int64_t messages;
  std::int64_t bytes;
};

RepeatKey repeat_key(const dl::Result& r) {
  return RepeatKey{r.modularity, r.phases, r.total_iterations, r.distributed->messages,
                   r.distributed->bytes};
}

/// Checks one batch result: every vertex assigned, modularity recomputed from
/// scratch agrees, and the run repeats the graph's first run exactly (which
/// becomes the reference when `ref` is still empty).
void check_batch_result(Outcome& out, const dl::graph::Csr& g, const dl::Result& r,
                        std::optional<RepeatKey>& ref, const std::string& at) {
  if (!r.distributed) return out.violation(at + "no distributed result");
  if (r.community.size() != static_cast<std::size_t>(g.num_vertices()))
    return out.violation(at + "assignment covers " + std::to_string(r.community.size()) +
                         " of " + std::to_string(g.num_vertices()) + " vertices");
  for (const dl::CommunityId c : r.community)
    if (c < 0 || c >= r.num_communities)
      return out.violation(at + "vertex assigned to community " + std::to_string(c));
  const double q = dl::louvain::modularity(g, r.community);
  if (!(std::abs(q - r.modularity) <= 1e-9))
    return out.violation(at + "modularity " + std::to_string(r.modularity) +
                         " but recomputed " + std::to_string(q));
  const RepeatKey k = repeat_key(r);
  if (!ref) ref = k;
  if (!same_bits(k.modularity, ref->modularity) || k.phases != ref->phases ||
      k.iterations != ref->iterations || k.messages != ref->messages || k.bytes != ref->bytes)
    out.violation(at + "exact-repeat drift (modularity/phases/iterations/messages/bytes)");
}

/// Mean over graphs of each graph's median sample.
double mean_of_medians(const std::vector<std::vector<double>>& per_graph) {
  std::vector<double> medians;
  for (const auto& v : per_graph)
    if (!v.empty()) medians.push_back(median(v));
  return mean(medians);
}

Outcome run_batch(const BatchSpec& spec, const Options& opt) {
  Outcome out;
  SpanLog spans;
  Series series;
  const int num_graphs = opt.smoke ? 2 : kBatchGraphs;

  // Set-up, once per graph: generate and build the CSR.
  std::vector<double> setup;
  std::vector<dl::graph::Csr> graphs;
  for (int k = 0; k < num_graphs; ++k) {
    const int root = spans.open("setup");
    const int gs = spans.open("gen", root);
    dl::gen::GeneratedGraph gen = generate_batch_graph(spec, opt, k);
    spans.close(gs);
    const int cs = spans.open("graph.from_edges", root);
    graphs.push_back(dl::graph::from_edges(gen.num_vertices, gen.edges));
    spans.close(cs);
    setup.push_back(spans.close(root));
  }

  const dl::Plan untraced = dl::Plan::distributed(4).threads(1).variant(spec.variant).alpha(0.25);
  dl::Plan traced = untraced;
  traced.trace(opt.out_dir + "/trace-" + spec.name + ".json");

  // Warm-up run: fills caches and fixes graph 0's exact-repeat reference.
  std::vector<std::optional<RepeatKey>> refs(graphs.size());
  ++out.attempted;
  check_batch_result(out, graphs[0], untraced.run(graphs[0]), refs[0], "warm-up: ");

  // The timed closed loop, round-robin over the graphs. With --trace 1 every
  // untraced run is followed by a traced run of the same graph, so both see
  // the same host conditions.
  const std::size_t n = graphs.size();
  std::vector<std::vector<double>> wall(n), cpu(n), traced_wall(n);
  std::vector<double> modularity(n, 0.0);
  std::size_t runs = 0;
  const Clock::time_point start = Clock::now();
  const auto budget = std::chrono::duration<double>(opt.seconds);
  for (std::size_t i = 0; Clock::now() - start < budget || i < n; ++i) {
    const std::size_t k = i % n;
    for (const bool trace_this : {false, true}) {
      if (trace_this && !opt.trace) break;
      const double cpu0 = process_cpu_s();
      const int span = spans.open(trace_this ? "plan.run.traced" : "plan.run");
      const dl::Result r = (trace_this ? traced : untraced).run(graphs[k]);
      const double w = spans.close(span);
      const double c = process_cpu_s() - cpu0;
      ++out.attempted;
      ++runs;
      check_batch_result(out, graphs[k], r, refs[k],
                         "graph " + std::to_string(k) + " run " + std::to_string(runs) + ": ");
      if (trace_this) {
        traced_wall[k].push_back(w);
        continue;
      }
      wall[k].push_back(w);
      cpu[k].push_back(c);
      modularity[k] = r.modularity;
      if (opt.trace && r.distributed) {
        add_core_sample(series, JsonParser(r.to_json()).parse(), w);
        std::int64_t moved = 0, active = 0;
        for (const auto& ph : r.distributed->phase_telemetry)
          for (const auto& it : ph.iteration_detail) {
            moved += it.moved_vertices;
            active += it.active_vertices;
          }
        series["core.move_ratio"].push_back(
            active > 0 ? static_cast<double>(moved) / static_cast<double>(active) : 0.0);
      }
    }
  }
  out.samples["graphs"] = n;
  out.samples["runs"] = runs;
  out.samples["setup"] = setup.size();

  const double wall_s = mean_of_medians(wall);
  if (!opt.trace) {
    double wall_sum = 0;
    std::size_t timed = 0;
    for (const auto& v : wall) {
      for (double w : v) wall_sum += w;
      timed += v.size();
    }
    out.put("latency_p50_ms", 1e3 * wall_s, "ms");
    out.put("results_per_s", static_cast<double>(timed) / wall_sum, "1/s");
    out.put("cpu_ms_per_result", 1e3 * mean_of_medians(cpu), "ms");
    out.put("modularity", mean(modularity), "Q");
    out.put("setup_s", median(setup), "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }
  const std::map<std::string, double> exact = {
      {"gen.s", per_setup(spans, "gen")},
      {"graph.csr_build_s", per_setup(spans, "graph.from_edges")},
      {"trace.overhead_frac", mean_of_medians(traced_wall) / wall_s - 1.0},
      {"bench.samples", static_cast<double>(runs)},
  };
  put_per_layer(out, series, exact);
  spans.write_chrome_trace(opt.out_dir + "/spans-" + spec.name + ".json");
  return out;
}

// ---- service workload: mixed reads and writes through the daemon stack ----

constexpr int kServiceSetups = 3;  ///< set-ups per run; setup_s is their median
constexpr int kServiceWorkers = 2;
constexpr int kServiceRanks = 2;
constexpr int kBatchEdges = 32;
/// Share of submits that repeat an earlier request. Kept away from 0.5 so the
/// submit median sits inside the miss cluster, not in the gap between hits
/// and misses.
constexpr double kHitShare = 0.3;
constexpr std::size_t kSubmitGraphs = 4;
constexpr std::size_t kRepeatWindow = 16;  ///< repeats pick among the last 16 keys
const char* const kSessionName = "perfbench";

dl::service::JobConfig service_config(std::uint64_t plan_seed) {
  dl::service::JobConfig c;
  c.ranks = kServiceRanks;
  c.threads = 1;
  c.variant = static_cast<std::uint8_t>(dl::Variant::kBaseline);
  c.seed = plan_seed;
  return c;
}

dl::service::JobRequest job_request(const dl::gen::GeneratedGraph& gen, SpanLog& spans, int parent,
                                    std::uint64_t plan_seed) {
  const int cs = spans.open("graph.from_edges", parent);
  const dl::graph::Csr g = dl::graph::from_edges(gen.num_vertices, gen.edges);
  spans.close(cs);
  dl::service::JobRequest req;
  req.config = service_config(plan_seed);
  req.num_vertices = g.num_vertices();
  req.edges = dl::service::canonical_edges(g);
  return req;
}

/// One running daemon stack: scheduler, endpoint, and the writer connection
/// with its resident session opened.
struct ServiceStack {
  std::unique_ptr<dl::service::JobScheduler> scheduler;
  std::unique_ptr<dl::service::ServiceEndpoint> endpoint;
  std::optional<dl::service::ServiceClient> writer;
  dl::VertexId session_vertices{0};
  std::vector<dl::service::JobRequest> submit_pool;
  std::string open_manifest;

  ~ServiceStack() {
    writer.reset();
    if (endpoint) endpoint->stop();
    endpoint.reset();
    scheduler.reset();
  }
};

/// Set-up of the service workload: start the endpoint, generate and build
/// the session graph and the submit pool, open the resident session.
std::unique_ptr<ServiceStack> start_service(const Options& opt, const std::string& socket,
                                            SpanLog& spans) {
  auto stack = std::make_unique<ServiceStack>();
  const int root = spans.open("setup");
  dl::service::SchedulerOptions so;
  so.workers = kServiceWorkers;
  stack->scheduler = std::make_unique<dl::service::JobScheduler>(so);
  dl::service::EndpointOptions eo;
  eo.unix_path = socket;
  stack->endpoint = std::make_unique<dl::service::ServiceEndpoint>(eo, *stack->scheduler);
  stack->endpoint->start();

  auto rmat = [&](int scale, std::uint64_t stream) {
    dl::gen::RmatParams p;
    p.scale = scale;
    p.edges_per_vertex = 8;
    p.seed = derive_seed(opt.seed, stream);
    const int gs = spans.open("gen", root);
    dl::gen::GeneratedGraph g = dl::gen::rmat(p);
    spans.close(gs);
    return g;
  };
  dl::service::JobRequest open = job_request(rmat(opt.smoke ? 11 : 15, 1), spans, root, 7777);
  open.session_name = kSessionName;
  stack->session_vertices = open.num_vertices;
  for (std::size_t i = 0; i < kSubmitGraphs; ++i)
    stack->submit_pool.push_back(job_request(rmat(opt.smoke ? 9 : 13, 2 + i), spans, root, 0));

  stack->writer.emplace(dl::service::ServiceClient::connect_unix(socket));
  const int call = spans.open("service.open", root);
  const dl::service::Frame reply = stack->writer->call(
      dl::service::FrameType::kOpenSession, dl::service::encode_job_request(open));
  spans.close(call);
  if (reply.type != dl::service::FrameType::kManifest)
    throw std::runtime_error("open-session refused");
  stack->open_manifest.assign(reinterpret_cast<const char*>(reply.payload.data()),
                              reply.payload.size());
  spans.close(root);
  return stack;
}

std::string body_of(const dl::service::Frame& f) {
  return std::string(reinterpret_cast<const char*>(f.payload.data()), f.payload.size());
}

/// Manifest text up to its per-response "service" section.
std::string without_service(const std::string& manifest) {
  return manifest.substr(0, manifest.find(",\"service\":"));
}

struct SubmitKey {
  std::size_t graph;
  std::uint64_t plan_seed;
  bool operator<(const SubmitKey& o) const {
    return std::pair(graph, plan_seed) < std::pair(o.graph, o.plan_seed);
  }
};

/// What the two client threads record; each thread owns one instance.
struct ClientLog : Tally {
  std::vector<double> latency_ms;
  Series series;
};

void writer_loop(ServiceStack& stack, const Options& opt, SpanLog& spans, Clock::time_point deadline,
                 ClientLog& log) {
  std::uint64_t rng = derive_seed(opt.seed, 100);
  const auto n = static_cast<std::uint64_t>(stack.session_vertices);
  double reactivated_prev = 0, iters_prev = 0;
  for (std::int64_t k = 1; Clock::now() < deadline; ++k) {
    dl::service::UpdateRequest req;
    req.session_name = kSessionName;
    std::set<std::pair<dl::VertexId, dl::VertexId>> seen;
    while (req.changes.size() < kBatchEdges) {
      auto u = static_cast<dl::VertexId>(splitmix64(rng) % n);
      auto v = static_cast<dl::VertexId>(splitmix64(rng) % n);
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (seen.emplace(u, v).second) req.changes.push_back(dl::graph::EdgeChange{u, v, 1.0, false});
    }
    const int root = spans.open("service.update");
    const int es = spans.open("service.encode_update", root);
    const std::vector<std::byte> payload = dl::service::encode_update_request(req);
    spans.close(es);
    const int cs = spans.open("client.call", root);
    const dl::service::Frame reply = stack.writer->call(dl::service::FrameType::kUpdate, payload);
    spans.close(cs);
    const double ms = 1e3 * spans.close(root);
    ++log.attempted;
    if (reply.type != dl::service::FrameType::kManifest) {
      log.violation("update " + std::to_string(k) + " answered " + body_of(reply));
      continue;
    }
    log.latency_ms.push_back(ms);
    try {
      const Json m = JsonParser(body_of(reply)).parse();
      const Json& u = m["updates"];
      if (u.num("batches_applied") != static_cast<double>(k) ||
          u.num("edges_added") != static_cast<double>(k * kBatchEdges))
        log.violation("update " + std::to_string(k) + ": manifest counts the wrong batches");
      log.series["session.compute_ms"].push_back(1e3 * m.num("seconds"));
      log.series["session.reactivated_per_update"].push_back(u.num("vertices_reactivated") -
                                                             reactivated_prev);
      log.series["session.reconverge_iters_per_update"].push_back(
          u.num("reconverge_iterations") - iters_prev);
      reactivated_prev = u.num("vertices_reactivated");
      iters_prev = u.num("reconverge_iterations");
      log.series["session.fallback_frac"] = {u.num("fallback_to_full") / static_cast<double>(k)};
      log.series["service.queue_depth_mean"].push_back(m["service"].num("queue_depth"));
    } catch (const std::exception& e) {
      log.violation("update " + std::to_string(k) + ": " + e.what());
    }
  }
}

void submit_loop(ServiceStack& stack, const Options& opt, SpanLog& spans,
                 Clock::time_point deadline, dl::service::ServiceClient& client,
                 std::map<SubmitKey, std::string>& miss_manifests, ClientLog& log) {
  std::uint64_t rng = derive_seed(opt.seed, 200);
  std::vector<SubmitKey> history;
  std::uint64_t next_new = 0;
  for (std::int64_t k = 0; Clock::now() < deadline; ++k) {
    const bool repeat = !history.empty() &&
                        static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53 < kHitShare;
    SubmitKey key{};
    if (repeat) {
      const std::size_t window = std::min(kRepeatWindow, history.size());
      key = history[history.size() - 1 - splitmix64(rng) % window];
    } else {
      key = SubmitKey{next_new % kSubmitGraphs, 1000 + next_new};
      ++next_new;
      history.push_back(key);
    }
    dl::service::JobRequest& req = stack.submit_pool[key.graph];
    req.config.seed = key.plan_seed;

    const int root = spans.open("service.submit");
    const int es = spans.open("service.encode_job", root);
    const std::vector<std::byte> payload = dl::service::encode_job_request(req);
    spans.close(es);
    const int cs = spans.open("client.call", root);
    const dl::service::Frame reply = client.call(dl::service::FrameType::kSubmit, payload);
    spans.close(cs);
    const double ms = 1e3 * spans.close(root);
    ++log.attempted;
    if (opt.trace) {
      // The daemon's decode cost, replayed on the client outside the timing.
      const int ds = spans.open("service.decode_job");
      (void)dl::service::decode_job_request(payload);
      spans.close(ds);
    }
    const std::string at = "submit " + std::to_string(k) + ": ";
    if (reply.type != dl::service::FrameType::kManifest) {
      log.violation(at + "answered " + body_of(reply));
      continue;
    }
    log.latency_ms.push_back(ms);
    const std::string body = body_of(reply);
    try {
      const Json m = JsonParser(body).parse();
      const bool hit = m["service"]["cache_hit"].boolean;
      if (hit != repeat) log.violation(at + (repeat ? "repeat missed the cache" : "new key hit"));
      const double q = m.num("modularity");
      if (!(q >= -0.5 && q <= 1.0)) log.violation(at + "modularity out of range");
      log.series["service.reply_bytes"].push_back(static_cast<double>(body.size()));
      log.series["service.queue_depth_mean"].push_back(m["service"].num("queue_depth"));
      log.series["service.cache_hit"].push_back(hit ? 1.0 : 0.0);
      if (hit) {
        log.series["service.hit_ms"].push_back(ms);
        auto it = miss_manifests.find(key);
        if (it == miss_manifests.end() || it->second != without_service(body))
          log.violation(at + "cache hit differs from its miss up to \"service\"");
      } else {
        log.series["service.miss_ms"].push_back(ms);
        log.series["service.overhead_ms"].push_back(ms - 1e3 * m.num("seconds"));
        miss_manifests[key] = without_service(body);
        if (opt.trace) add_core_sample(log.series, m, m.num("seconds"));
      }
    } catch (const std::exception& e) {
      log.violation(at + e.what());
    }
  }
}

/// Re-runs one submitted job through Plan::run in-process and checks that
/// the daemon returned the same clustering (the determinism contract) and
/// that the assignment's recomputed modularity agrees.
void cross_check_submit(Outcome& out, const ServiceStack& stack, const SubmitKey& key,
                        const std::string& manifest) {
  const dl::service::JobRequest& req = stack.submit_pool[key.graph];
  const dl::graph::Csr g = dl::graph::from_edges(req.num_vertices, req.edges);
  const dl::Result r = dl::Plan::distributed(kServiceRanks)
                           .threads(1)
                           .variant(dl::Variant::kBaseline)
                           .seed(key.plan_seed)
                           .run(g);
  const Json m = JsonParser(manifest + "}").parse();
  if (!same_bits(m.num("modularity"), r.modularity) ||
      m.num("phases") != static_cast<double>(r.phases) ||
      m.num("total_iterations") != static_cast<double>(r.total_iterations) ||
      m.num("messages") != static_cast<double>(r.distributed->messages))
    out.violation("daemon result differs from Plan::run on the same job");
  if (r.community.size() != static_cast<std::size_t>(g.num_vertices()) ||
      !(std::abs(dl::louvain::modularity(g, r.community) - r.modularity) <= 1e-9))
    out.violation("Plan::run on the submitted job fails the modularity recheck");
}

Outcome run_service(const Options& opt) {
  Outcome out;
  SpanLog spans;
  const std::string socket = opt.out_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";

  std::vector<double> setup;
  std::unique_ptr<ServiceStack> stack;
  for (int rep = 0; rep < kServiceSetups; ++rep) {
    stack.reset();  // tear the previous stack down before timing the next
    const Clock::time_point t0 = Clock::now();
    stack = start_service(opt, socket, spans);
    setup.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  dl::service::ServiceClient submitter = dl::service::ServiceClient::connect_unix(socket);
  std::map<SubmitKey, std::string> miss_manifests;
  ClientLog wlog, slog;
  const double cpu0 = process_cpu_s();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(opt.seconds));
  auto guarded = [](ClientLog& log, auto&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      log.violation(std::string("client aborted: ") + e.what());
    }
  };
  std::thread writer([&] {
    guarded(wlog, [&] { writer_loop(*stack, opt, spans, deadline, wlog); });
  });
  guarded(slog, [&] {
    submit_loop(*stack, opt, spans, deadline, submitter, miss_manifests, slog);
  });
  writer.join();
  const double window = std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu = process_cpu_s() - cpu0;

  // Close the session; the reply acknowledges with the service manifest.
  dl::service::WireWriter close_req;
  close_req.put_string(kSessionName);
  if (stack->writer->call(dl::service::FrameType::kCloseSession, close_req.bytes()).type !=
      dl::service::FrameType::kStatsReply)
    out.violation("close-session was not acknowledged");

  out.merge(wlog);
  out.merge(slog);
  if (miss_manifests.empty()) {
    out.violation("no submit completed");
  } else {
    const auto& [key, manifest] = *miss_manifests.begin();
    cross_check_submit(out, *stack, key, manifest);
  }
  // Mean over the session graph and each submit graph's first miss (plan
  // seed 1000 + g): fixed by the seed, whatever the run's timing.
  std::vector<double> modularity = {JsonParser(stack->open_manifest).parse().num("modularity")};
  for (std::size_t g = 0; g < kSubmitGraphs; ++g)
    if (auto it = miss_manifests.find(SubmitKey{g, 1000 + g}); it != miss_manifests.end())
      modularity.push_back(JsonParser(it->second + "}").parse().num("modularity"));
  stack.reset();

  std::vector<double> all = wlog.latency_ms;
  all.insert(all.end(), slog.latency_ms.begin(), slog.latency_ms.end());
  out.samples["update"] = wlog.latency_ms.size();
  out.samples["submit"] = slog.latency_ms.size();
  out.samples["setup"] = setup.size();

  if (!opt.trace) {
    out.put("latency_p50_ms", median(all), "ms");
    out.put("results_per_s", static_cast<double>(all.size()) / window, "1/s");
    out.put("cpu_ms_per_result", all.empty() ? 0.0 : 1e3 * cpu / static_cast<double>(all.size()), "ms");
    out.put("modularity", mean(modularity), "Q");
    out.put("setup_s", median(setup), "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }
  Series series = slog.series;
  for (auto& [name, v] : wlog.series) {
    auto& dst = series[name];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  auto ms = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };
  series["service.encode_ms"] = ms(spans.self_seconds("service.encode_job"));
  series["service.decode_ms"] = ms(spans.self_seconds("service.decode_job"));
  const std::map<std::string, double> exact = {
      {"gen.s", per_setup(spans, "gen")},
      {"graph.csr_build_s", per_setup(spans, "graph.from_edges")},
      {"service.update_p50_ms", median(wlog.latency_ms)},
      {"service.update_p90_ms", percentile(wlog.latency_ms, 0.9)},
      {"service.submit_p50_ms", median(slog.latency_ms)},
      {"service.submit_p90_ms", percentile(slog.latency_ms, 0.9)},
      {"service.cache_hit_ratio", mean(series["service.cache_hit"])},
      {"service.queue_depth_mean", mean(series["service.queue_depth_mean"])},
      {"trace.overhead_frac", 0.0},  // the service has no in-program tracing to switch on
      {"bench.samples", static_cast<double>(all.size())},
  };
  put_per_layer(out, series, exact);
  spans.write_chrome_trace(opt.out_dir + "/spans-service-mixed.json");
  return out;
}

// ---- main ------------------------------------------------------------------

void print_result(const Outcome& out, bool correct) {
  for (const auto& [name, n] : out.samples)
    std::fprintf(stderr, "  samples %-12s %zu\n", name.c_str(), n);
  for (const Metric& m : out.metrics)
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  for (const std::string& v : out.violations) std::fprintf(stderr, "  FAILED: %s\n", v.c_str());

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(out.metrics[i].value) ? out.metrics[i].value : 0.0);
    line += (i ? ", \"" : "\"") + out.metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload rmat16-base|lfr-etc|service-mixed "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (a == "--out") opt.out_dir = value();
      else if (a == "--smoke") opt.smoke = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  ::signal(SIGPIPE, SIG_IGN);  // a dropped socket surfaces as an error, not a kill
  std::filesystem::create_directories(opt.out_dir);

  try {
    Outcome out;
    if (opt.workload == "rmat16-base")
      out = run_batch(BatchSpec{"rmat16-base", false, dl::Variant::kBaseline}, opt);
    else if (opt.workload == "lfr-etc")
      out = run_batch(BatchSpec{"lfr-etc", true, dl::Variant::kEtc}, opt);
    else if (opt.workload == "service-mixed")
      out = run_service(opt);
    else
      return usage(("unknown workload " + opt.workload).c_str());
    const bool correct = out.failed == 0 && out.attempted > 0;
    print_result(out, correct);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
