// dlouvain -- the library's single public front door.
//
// A `Plan` describes one run of the paper's distributed algorithm over
// in-process ranks and carries every tunable as a fluent builder; `run()`
// executes it and returns one `Result`:
//
//   #include "dlouvain.hpp"
//
//   auto result = dlouvain::Plan::distributed()
//                     .ranks(8)
//                     .threads(4)                       // per-rank pool
//                     .variant(dlouvain::Variant::kEtc)
//                     .alpha(0.25)
//                     .run(graph);
//   std::cout << result.modularity << '\n';
//
// For streaming graphs, `open()` returns a re-entrant Session that retains
// the converged state and re-clusters incrementally as edges arrive
// (docs/STREAMING.md): batch-touched vertices and their neighbourhoods are
// reactivated and re-converged warm, everything else stays frozen, and a
// configurable modularity-drift threshold triggers a full recompute.
// `run(g)` is exactly `open(g)` + take the result:
//
//   auto session = dlouvain::Plan::distributed(8).open(graph);
//   auto stats = session.update(dlouvain::EdgeBatch()
//                                   .add(17, 4242, 1.0)
//                                   .remove(9, 13));
//   std::cout << session.result().modularity << '\n';
//
// Plans are validated before anything runs: run()/open() first call
// validate(), which throws a single PlanError naming the offending setting
// (e.g. a resolution() <= 0, or checkpointing() and resume() pointed at
// different directories).
//
// The serial reference and the shared-memory comparator of the paper's
// Tables I-III are not behind Plan: call louvain::louvain_serial
// (louvain/serial.hpp) or louvain::louvain_shared (louvain/shared.hpp) with
// a louvain::LouvainConfig, whose defaults equal Plan's. The raw distributed
// entry points (core/dist_louvain.hpp) stay public for callers that want the
// config or a real Comm. dist_config() is the single materialization point:
// run()/open() execute exactly the config it returns, so dropping down to
// core::dist_louvain_inprocess with it reproduces a Plan-driven run bit for
// bit. Per-phase telemetry and traffic counters are on Result::distributed.
//
// Determinism contract: for a fixed Plan (minus `threads`), the assignment
// and every modularity bit are identical at any thread count. Results
// depend on `ranks` -- but not on how each rank's work is threaded. A
// Session extends the contract to streams: a fixed (Plan, batch sequence)
// yields bitwise-identical assignments at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "core/dist_config.hpp"
#include "core/dist_louvain.hpp"
#include "graph/csr.hpp"
#include "graph/dist_graph.hpp"
#include "util/types.hpp"

namespace dlouvain {

/// A Plan that cannot run: conflicting or out-of-range settings, reported
/// by Plan::validate() (called by run()/open() before anything executes).
/// One error, one clear message naming the offending setting -- the CLI
/// surfaces it verbatim as its one-line failure.
class PlanError : public std::invalid_argument {
 public:
  explicit PlanError(const std::string& what) : std::invalid_argument(what) {}
};

/// A Session whose world is permanently degraded (a rank died during an
/// update and the per-rank graph slices are partitioned for a world that no
/// longer exists). Thrown by Session::update()/result() on every call after
/// the poisoning failure; the message names the original cause. Re-open the
/// plan on the current graph to continue. Transient failures (a CommFailure
/// that exhausted max_restarts) do NOT poison: updates mutate copies and
/// commit only on success, so the session recovers cleanly on the next call.
class SessionPoisoned : public std::runtime_error {
 public:
  explicit SessionPoisoned(const std::string& what) : std::runtime_error(what) {}
};

/// A batch of undirected edge mutations for Session::update. Fluent like
/// Plan; order matters only between a remove and an add of the SAME edge
/// (removals resolve against the pre-batch graph, additions apply after).
/// Duplicate changes follow the same rule: adding the same edge twice sums
/// the weights (on top of the pre-batch weight when the edge exists and is
/// not removed in this batch), while removing the same edge twice is an
/// error -- the second removal names an edge the pre-batch graph holds only
/// once. test_incremental's EdgeBatchSemantics pins these rules.
class EdgeBatch {
 public:
  /// Add weight `w` (finite, > 0) to edge {u, v}, creating it if absent.
  EdgeBatch& add(VertexId u, VertexId v, Weight w = 1.0) {
    changes_.push_back(graph::EdgeChange{u, v, w, false});
    return *this;
  }
  /// Remove edge {u, v} entirely (it must exist in the pre-batch graph).
  EdgeBatch& remove(VertexId u, VertexId v) {
    changes_.push_back(graph::EdgeChange{u, v, 0.0, true});
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return changes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return changes_.empty(); }
  [[nodiscard]] const std::vector<graph::EdgeChange>& changes() const noexcept {
    return changes_;
  }

 private:
  std::vector<graph::EdgeChange> changes_;
};

/// What one Session::update did (per-batch view; Result::updates carries the
/// cumulative totals the manifest reports).
struct UpdateStats {
  std::int64_t edges_added{0};
  std::int64_t edges_removed{0};
  /// Vertices the warm start reactivated (global; 0 for an empty batch).
  std::int64_t vertices_reactivated{0};
  /// Iterations the warm phase-0 re-convergence ran.
  std::int64_t reconverge_iterations{0};
  /// True when the warm result drifted past Plan::update_fallback and the
  /// batch was recomputed from scratch.
  bool fell_back_to_full{false};
  double seconds{0};
};

/// Heuristic variants (paper Section V legend), re-exported so Plan users
/// never open the core namespace.
using core::Variant;

/// Outcome of a Plan::run, and a Session's current clustering.
struct Result {
  /// Final community id per original vertex, compacted to
  /// [0, num_communities).
  std::vector<CommunityId> community;
  Weight modularity{0};
  CommunityId num_communities{0};
  int phases{0};
  long total_iterations{0};
  double seconds{0};

  /// Full distributed result (telemetry, traffic counters, per-phase
  /// detail). Every completed run engages it.
  std::optional<core::DistResult> distributed;

  /// How the run survived failures (attempts == 1 means it succeeded
  /// first try).
  struct Recovery {
    int attempts{1};            ///< runs launched, including the success
    int phases_replayed{0};     ///< phases re-run across all restarts
    int resumed_from_phase{-1}; ///< last restart's checkpoint phase, -1 fresh

    /// Traffic burned by DISCARDED attempts: each failed attempt's total
    /// messages/bytes (algorithm + checkpoint I/O) minus whatever that
    /// attempt banked into a checkpoint (which the final result re-counts
    /// via its restored counters). Zero on a clean first-try run. This is
    /// where restart traffic goes now -- it is never charged to the
    /// completed run's Result::messages/bytes (the satellite-1 fix).
    std::int64_t wasted_messages{0};
    std::int64_t wasted_bytes{0};

    /// Fault-injector event totals across all attempts (zero without
    /// Plan::inject_faults).
    std::int64_t injected_delays{0};
    std::int64_t injected_duplicates{0};
    std::int64_t injected_corruptions{0};
    std::int64_t injected_crashes{0};
    std::int64_t injected_losses{0};

    /// The recovery ladder's own telemetry (manifest "recovery.ladder";
    /// docs/FAULT_TOLERANCE.md). Rung 1 -- link-level repair, summed over
    /// every attempt (successful and discarded): NACKs issued, payload
    /// copies retransmitted, backoff milliseconds scheduled, and messages
    /// whose retry budget ran out (each escalation surfaces as a
    /// CommFailure and costs a restart).
    std::int64_t nacks{0};
    std::int64_t retransmits{0};
    std::int64_t backoff_ms{0};
    std::int64_t escalations{0};
    /// Rung 2 -- verdicts: receive deadlines extended on slow-not-dead
    /// evidence, and rank-dead verdicts the recovery driver received.
    std::int64_t slow_verdict_extensions{0};
    int verdicts_dead{0};
    /// Rung 3 -- shrink-to-survivors: times the world shrank by one rank,
    /// and the rank count that finished the job (== Plan::ranks when no
    /// shrink happened).
    int shrinks{0};
    int final_ranks{0};
  };
  Recovery recovery;

  /// Cumulative streaming-update telemetry (all zero for a one-shot run;
  /// maintained by Session::update). The manifest's v2 "updates" section.
  core::UpdateTelemetry updates;

  /// Machine-readable run manifest (schema "dlouvain-run-manifest/8"; see
  /// docs/OBSERVABILITY.md). A run that failed for good has no `distributed`
  /// result; its manifest has the same shape with zeroed result fields.
  /// Same content `Plan::metrics(path)` writes to disk.
  [[nodiscard]] std::string to_json() const;
};

class Session;

/// Fluent description of one distributed community-detection run. Start
/// from Plan::distributed(ranks), chain setters, end with run(); plans are
/// plain values and can be stored, copied and reused.
class Plan {
 public:
  /// The paper's distributed algorithm over `ranks` in-process ranks.
  static Plan distributed(int ranks = 4) {
    Plan p;
    p.ranks_ = ranks;
    return p;
  }

  // -- shape --------------------------------------------------------------
  /// In-process ranks.
  Plan& ranks(int n) { ranks_ = n; return *this; }
  /// Compute threads per rank. <= 0 = hardware concurrency. Never changes
  /// results (see util/parallel.hpp).
  Plan& threads(int n) { threads_ = n; return *this; }
  /// Initial partition of the input across ranks.
  Plan& partition(graph::PartitionKind kind) { partition_ = kind; return *this; }

  // -- algorithm ----------------------------------------------------------
  /// Heuristic variant (paper Section V). kEt/kEtc switch early termination
  /// on; pair with alpha().
  Plan& variant(Variant v) { variant_ = v; return *this; }
  /// ET aggressiveness (paper alpha; only meaningful with kEt/kEtc).
  Plan& alpha(double a) { alpha_ = a; return *this; }
  /// Modularity-gain convergence threshold tau.
  Plan& threshold(double tau) { threshold_ = tau; return *this; }
  /// Resolution parameter gamma (1 = classical modularity).
  Plan& resolution(double gamma) { resolution_ = gamma; return *this; }
  Plan& seed(std::uint64_t s) { seed_ = s; return *this; }
  Plan& max_phases(int n) { max_phases_ = n; return *this; }
  Plan& max_iterations(int n) { max_iterations_ = n; return *this; }
  /// Colour-constrained sweeps (paper Section VI).
  Plan& coloring(bool on = true) { coloring_ = on; return *this; }

  // -- fault tolerance (see docs/FAULT_TOLERANCE.md) ----------------------
  /// Write phase-boundary checkpoints into `dir` (every `every` phases).
  Plan& checkpointing(std::string dir, int every = 1) {
    checkpoint_dir_ = std::move(dir);
    checkpoint_every_ = every;
    return *this;
  }
  /// Resume from the newest valid checkpoint in `dir` (and keep
  /// checkpointing there, unless checkpointing() names its own directory --
  /// naming two DIFFERENT directories is a validate() error; the old
  /// behaviour silently overwrote whichever was set last).
  Plan& resume(std::string dir) {
    resume_dir_ = std::move(dir);
    resume_ = true;
    return *this;
  }
  /// Blocked receives throw (with a deadlock diagnostic) after `seconds`
  /// instead of hanging. <= 0 = wait forever.
  Plan& comm_timeout(double seconds) { comm_timeout_ = seconds; return *this; }
  /// Deterministic fault injection (crashes, message delay/duplication/
  /// corruption) for robustness testing.
  Plan& inject_faults(comm::FaultPlan plan) { faults_ = std::move(plan); return *this; }
  /// On a detectable communication failure (crash, timeout, corruption),
  /// restart up to `n` times -- from the newest checkpoint when
  /// checkpointing is on, from scratch otherwise. 0 = fail fast.
  Plan& max_restarts(int n) { max_restarts_ = n; return *this; }
  /// Rung-1 link-level ARQ (docs/FAULT_TOLERANCE.md): retransmit a lost or
  /// corrupted message up to `max` times per message, first retry after
  /// `backoff_ms` (doubling per attempt, capped), before the link escalates
  /// to a whole-run failure. 0 disables (detection-only, the old
  /// behaviour). Never changes results: retransmitted copies are absorbed
  /// by the sequence-number dedup layer bitwise-identically.
  Plan& retransmit(int max, double backoff_ms = 1.0) {
    retransmit_max_ = max;
    retransmit_backoff_ms_ = backoff_ms;
    return *this;
  }
  /// Rung-3 response to a rank-dead verdict: instead of retrying at the
  /// same world size (which a permanently dead rank re-fails forever),
  /// shrink to the survivors and resume at ranks-1 from the newest
  /// checkpoint (from scratch without checkpointing). Each death consumes
  /// one restart from the max_restarts() budget.
  Plan& shrink_on_rank_loss(bool on = true) {
    shrink_on_rank_loss_ = on;
    return *this;
  }

  // -- streaming updates (see docs/STREAMING.md) --------------------------
  /// Fallback threshold for Session::update: when a warm re-convergence
  /// lands more than `drift` BELOW the session's previous modularity, the
  /// batch is recomputed from scratch instead (the frozen skeleton no
  /// longer fits the graph). 0 falls back on any drop; must be >= 0.
  Plan& update_fallback(double drift) { update_fallback_ = drift; return *this; }

  // -- observability (see docs/OBSERVABILITY.md) --------------------------
  /// Write a merged Chrome trace_event JSON file (one pid per simulated
  /// rank) to `path` after the run. Spans are ring-buffered per rank and
  /// drained outside timed regions; results are bitwise unaffected.
  Plan& trace(std::string path) { trace_path_ = std::move(path); return *this; }
  /// Write the run manifest (Result::to_json()) to `path` after the run.
  Plan& metrics(std::string path) { metrics_path_ = std::move(path); return *this; }

  // -- materialized config (for callers dropping to the raw API) ----------
  [[nodiscard]] int num_ranks() const { return ranks_; }
  [[nodiscard]] int num_threads() const { return threads_; }
  /// The DistConfig this plan describes. THE materialization point:
  /// run()/open() execute exactly this config, so
  /// core::dist_louvain_inprocess(num_ranks(), g, plan.dist_config(), ...)
  /// reproduces plan.run(g) bit for bit (test_incremental pins this).
  [[nodiscard]] core::DistConfig dist_config() const;

  /// Check the plan for conflicting or out-of-range settings; throws one
  /// PlanError naming the first offender. Called by run()/open() before
  /// anything executes; public so callers can fail fast at build time.
  void validate() const;

  /// Execute the plan on `g` (an undirected graph as a symmetric CSR).
  /// Exactly open(g) + take the result.
  [[nodiscard]] Result run(const graph::Csr& g) const;

  /// Execute the plan on `g` and keep the converged state resident for
  /// incremental re-clustering: the returned Session owns the partitioned
  /// graph, the converged assignment and the update telemetry, and its
  /// update(EdgeBatch) re-converges warm (docs/STREAMING.md).
  [[nodiscard]] Session open(const graph::Csr& g) const;

 private:
  friend class Session;
  Plan() = default;

  int ranks_{4};
  int threads_{1};
  graph::PartitionKind partition_{graph::PartitionKind::kEvenEdges};
  Variant variant_{Variant::kBaseline};
  double alpha_{0.25};
  double threshold_{1e-6};
  double resolution_{1.0};
  std::uint64_t seed_{7777};
  int max_phases_{64};
  int max_iterations_{512};
  bool coloring_{false};
  std::string checkpoint_dir_;
  int checkpoint_every_{1};
  std::string resume_dir_;
  bool resume_{false};
  double update_fallback_{0.02};
  double comm_timeout_{0};
  std::optional<comm::FaultPlan> faults_;
  int max_restarts_{0};
  int retransmit_max_{0};
  double retransmit_backoff_ms_{1.0};
  bool shrink_on_rank_loss_{false};
  std::string trace_path_;
  std::string metrics_path_;
};

/// A resident clustering over one evolving graph: Plan::open(g) converges
/// from scratch and keeps the per-rank partitioned graphs and the converged
/// assignment in memory; each update(batch) mutates the graph in place and
/// re-converges warm -- only batch-touched vertices and their
/// neighbourhoods move, the rest of the assignment is frozen -- falling
/// back to a full recompute when modularity drifts past
/// Plan::update_fallback. result() always reflects the CURRENT graph and
/// has the exact shape Plan::run returns (manifest included).
///
/// Determinism: a fixed (Plan, batch sequence) yields bitwise-identical
/// assignments and modularity at any thread count. Move-only (owns the
/// partitioned graph state).
class Session {
 public:
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The clustering of the graph as currently updated. Same shape and
  /// manifest as Plan::run's result; Result::updates carries the session's
  /// cumulative update telemetry. Throws SessionPoisoned after a rank died
  /// during an update (the resident state no longer matches a runnable
  /// world).
  [[nodiscard]] const Result& result() const {
    if (!poisoned_.empty()) throw SessionPoisoned(poisoned_);
    return result_;
  }

  /// Apply `batch` to the graph and re-cluster. Collective over the same
  /// in-process ranks as the initial run; throws std::invalid_argument on a
  /// malformed batch (out-of-range endpoint, self loop, removal of an
  /// absent edge) WITHOUT modifying the session. An empty batch is a no-op.
  ///
  /// Failure lifecycle: a transient CommFailure that exhausts
  /// Plan::max_restarts propagates, but leaves the session on its pre-batch
  /// state (updates mutate per-rank copies and commit only on success) --
  /// the next update() starts clean with a fresh restart budget. A RankDead
  /// verdict instead POISONS the session (the world lost a rank for good;
  /// retrying at the old size can only re-fail): the original exception
  /// propagates, and every later update()/result() throws SessionPoisoned
  /// naming it. Re-open the plan to continue at the surviving size.
  UpdateStats update(const EdgeBatch& batch);

  /// Non-empty after a poisoning failure: the message every subsequent
  /// update()/result() throws as SessionPoisoned.
  [[nodiscard]] const std::string& poisoned() const noexcept { return poisoned_; }

  /// Number of update() calls that mutated the graph.
  [[nodiscard]] int updates_applied() const noexcept {
    return static_cast<int>(result_.updates.batches_applied);
  }

  /// The plan this session runs under (immutable once opened).
  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }

 private:
  friend class Plan;
  explicit Session(const Plan& plan) : plan_(plan) {}

  void run_initial(const graph::Csr& g);
  void write_artifacts() const;

  Plan plan_;
  Result result_;
  /// Why this session is unusable; empty while healthy. Set when a rank
  /// died during an update (see update()'s failure-lifecycle contract).
  std::string poisoned_;
  /// Exclusive ownership of the plan's checkpoint directory for the
  /// session's lifetime (core::CheckpointDirLock behind a type-erased
  /// pointer so this header stays checkpoint-free). Null when the plan
  /// neither checkpoints nor resumes. Two live sessions pointed at the same
  /// directory would interleave phase files; the second open() throws
  /// PlanError naming both owners instead.
  std::shared_ptr<void> checkpoint_lock_;
  /// Ranks currently running the session: Plan::ranks at open, decremented
  /// by every rung-3 shrink. Updates run at this size too.
  int active_ranks_{0};
  /// Each rank's slice of the CURRENT fine graph, which the session's runs
  /// read in place; update() swaps in the post-batch slices once it
  /// succeeds. Index = rank (re-sized on shrink).
  std::vector<graph::DistGraph> rank_graphs_;
  /// Session-lifetime run options: the fault injector (crash triggers stay
  /// one-shot across the whole stream) and the trace store (update spans
  /// flush alongside the initial run's) persist; the metrics registry is
  /// replaced per attempt so discarded traffic stays attributable.
  comm::RunOptions options_;
};

}  // namespace dlouvain
