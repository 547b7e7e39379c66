// Session: the re-entrant streaming driver behind Plan::open()/run()
// (docs/STREAMING.md). run_initial() is the old one-shot driver with the
// per-rank graph slices retained; update() splices each batch into new
// slices and re-converges warm.
#include "dlouvain.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dlouvain {

namespace {

void write_text_file(const std::string& path, const std::string& what,
                     const std::function<void(std::ofstream&)>& emit) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + what + " output " + path);
  emit(out);
  if (!out) throw std::runtime_error("failed writing " + what + " output " + path);
}

/// Copies the scalar block of a distributed result into `out`.
void assign_scalars(Result& out, const core::DistResult& r) {
  out.community = r.community;
  out.modularity = r.modularity;
  out.num_communities = r.num_communities;
  out.phases = r.phases;
  out.total_iterations = r.total_iterations;
  out.seconds = r.seconds;
}

/// Adds one attempt's arq.*/heartbeat.* counters to the ladder telemetry,
/// which accumulates across restarts and streaming updates alike. Must run
/// before the attempt's metrics registry is replaced.
void harvest_ladder(const util::MetricsRegistry& metrics,
                    Result::Recovery& recovery) {
  const util::MetricsSnapshot t = metrics.total();
  recovery.nacks += t[util::Counter::kArqNacks];
  recovery.retransmits += t[util::Counter::kArqRetransmits];
  recovery.backoff_ms += t[util::Counter::kArqBackoffMs];
  recovery.escalations += t[util::Counter::kArqEscalations];
  recovery.slow_verdict_extensions += t[util::Counter::kHeartbeatExtensions];
}

/// Copies the session-lifetime fault injector's event totals (no-op without
/// Plan::inject_faults).
void harvest_injector(const comm::FaultInjector* faults,
                      Result::Recovery& recovery) {
  if (faults == nullptr) return;
  recovery.injected_delays = faults->delayed.load();
  recovery.injected_duplicates = faults->duplicated.load();
  recovery.injected_corruptions = faults->corrupted.load();
  recovery.injected_crashes = faults->crashes_fired.load();
  recovery.injected_losses = faults->lost.load();
}

}  // namespace

void Session::run_initial(const graph::Csr& g) {
  auto cfg = plan_.dist_config();

  // Claim the checkpoint directory for the session's lifetime BEFORE
  // anything touches it: two live runs checkpointing into one directory
  // interleave (and prune) each other's phase files. The lock is a
  // pidfile, so a directory orphaned by a crashed process is reclaimed,
  // while a genuinely live owner -- another process, or another Session
  // in this one -- turns into a PlanError naming both parties.
  if (!cfg.checkpoint.dir.empty()) {
    static std::atomic<std::uint64_t> next_session_id{0};
    const std::string tag =
        "s" + std::to_string(next_session_id.fetch_add(1, std::memory_order_relaxed));
    try {
      auto lock = std::make_shared<core::CheckpointDirLock>(cfg.checkpoint.dir, tag);
      checkpoint_lock_ = std::move(lock);
    } catch (const core::CheckpointDirBusy& busy) {
      throw PlanError("checkpointing(\"" + cfg.checkpoint.dir +
                      "\"): directory is in use by [" + busy.owner +
                      "] and this plan (pid " + std::to_string(::getpid()) +
                      " session " + tag +
                      ") would interleave its phase files; point the two "
                      "runs at different directories");
    }
    // A fresh run starts from an empty directory: a restart resumes from
    // the newest checkpoint in it, and the config fingerprint does not
    // cover the graph, so another job's leftovers would be taken as ours.
    if (!cfg.checkpoint.resume) core::checkpoint_clear(cfg.checkpoint.dir);
  }

  options_.timeout_seconds = plan_.comm_timeout_;
  options_.retransmit_max = plan_.retransmit_max_;
  options_.retransmit_backoff_ms = plan_.retransmit_backoff_ms_;
  // One injector for the whole session: crash triggers are one-shot, so
  // a restarted attempt (and later updates) proceed past fired faults.
  if (plan_.faults_)
    options_.faults = std::make_shared<comm::FaultInjector>(*plan_.faults_);
  // One trace store for the whole session: failed-attempt and update
  // spans flush alongside the initial run's.
  if (!plan_.trace_path_.empty())
    options_.trace = std::make_shared<util::TraceStore>(plan_.ranks_);

  // What the newest on-disk checkpoint has banked so far (zero without
  // checkpointing). Per-attempt deltas of this split a failed attempt's
  // traffic into salvaged (resumable) and wasted.
  const auto peek = [&] {
    return cfg.checkpoint.dir.empty() ? std::nullopt
                                      : core::checkpoint_latest(cfg.checkpoint.dir);
  };
  core::RunCounters banked;
  if (const auto latest = peek()) banked = latest->counters;

  active_ranks_ = plan_.ranks_;

  // Recovery driver: on any detectable communication failure, restart --
  // from the newest checkpoint when checkpointing is on, from scratch
  // otherwise -- up to max_restarts_ extra attempts. A rank-DEAD verdict
  // (rung 2) with shrink_on_rank_loss additionally drops the world to
  // the survivors before resuming (rung 3).
  std::atomic<int> progress{-1};

  // Bookkeeping for one DISCARDED attempt: replayed phases and wasted
  // traffic. Runs for the final failed attempt too (before the rethrow),
  // so a run that ultimately fails still reports honest waste.
  const auto account_failed_attempt = [&] {
    const auto latest = peek();
    const int next_resume = latest ? latest->next_phase : 0;
    // Phases [next_resume, progress] ran this attempt and will run
    // again on the next one.
    result_.recovery.phases_replayed +=
        std::max(0, progress.load(std::memory_order_relaxed) + 1 - next_resume);

    // Wasted = everything this attempt sent (algorithm + checkpoint
    // I/O) minus what it banked into a checkpoint -- the banked part
    // re-enters the final result through its restored counters.
    const util::MetricsSnapshot spent = options_.metrics->total();
    const core::RunCounters now = latest ? latest->counters : core::RunCounters{};
    const std::int64_t banked_messages =
        std::max<std::int64_t>(0, now.messages - banked.messages);
    const std::int64_t banked_bytes =
        std::max<std::int64_t>(0, now.bytes - banked.bytes);
    result_.recovery.wasted_messages += std::max<std::int64_t>(
        0, spent[util::Counter::kMessages] +
               spent[util::Counter::kCheckpointMessages] - banked_messages);
    result_.recovery.wasted_bytes += std::max<std::int64_t>(
        0, spent[util::Counter::kBytes] +
               spent[util::Counter::kCheckpointBytes] - banked_bytes);
    banked = now;
    harvest_ladder(*options_.metrics, result_.recovery);
  };
  // Final-failure path: finish the books, persist what we know (best
  // effort -- never mask the original exception), and let the caller's
  // rethrow proceed.
  const auto finalize_failure = [&](int attempt) {
    result_.recovery.attempts = attempt + 1;
    result_.recovery.final_ranks = active_ranks_;
    harvest_injector(options_.faults.get(), result_.recovery);
    try {
      write_artifacts();
    } catch (...) {
    }
  };
  // Marker span in rank 0's ring (post-join, so single-writer safe):
  // restarts and shrinks show up on the recovery timeline.
  const auto mark = [&](const char* name, int attempt) {
    if (options_.trace)
      util::TraceSpan span(options_.trace->buffer(0), name, "recovery", attempt);
  };

  for (int attempt = 0;; ++attempt) {
    progress.store(-1, std::memory_order_relaxed);
    // A FRESH registry per attempt: a discarded attempt's traffic is
    // accounted to recovery.wasted_*, never carried into the next
    // attempt's counters. Sized to the CURRENT world (shrinks resize).
    options_.metrics = std::make_shared<util::MetricsRegistry>(active_ranks_);
    // Retain this attempt's fine slices for update(): distinct
    // elements, written by distinct rank-threads.
    rank_graphs_.assign(static_cast<std::size_t>(active_ranks_), {});
    try {
      core::DistResult r;
      comm::run(
          active_ranks_,
          [&](comm::Comm& comm) {
            auto dist = graph::DistGraph::from_replicated(comm, g, plan_.partition_);
            rank_graphs_[static_cast<std::size_t>(comm.rank())] = dist;
            auto local = core::dist_louvain(comm, std::move(dist), cfg, &progress);
            if (comm.rank() == 0) r = std::move(local);
          },
          options_);
      result_.recovery.attempts = attempt + 1;
      result_.recovery.resumed_from_phase = r.resumed_from_phase;
      harvest_ladder(*options_.metrics, result_.recovery);
      assign_scalars(result_, r);
      result_.distributed = std::move(r);
      break;
    } catch (const comm::RankDead& e) {
      // Rung-2 verdict: a specific rank is permanently gone. Retrying at
      // the same size would hit the same dead rank again; shrink to the
      // survivors (rung 3) when allowed, give up otherwise.
      account_failed_attempt();
      result_.recovery.verdicts_dead += 1;
      if (!plan_.shrink_on_rank_loss_ || active_ranks_ <= 1 ||
          attempt >= plan_.max_restarts_) {
        finalize_failure(attempt);
        throw;
      }
      active_ranks_ -= 1;
      result_.recovery.shrinks += 1;
      // The dead hardware left the world: its kill trigger must not
      // re-fire against the renumbered survivor ranks.
      if (options_.faults) options_.faults->retire(e.rank);
      cfg.checkpoint.resume = !cfg.checkpoint.dir.empty();
      mark("recovery_shrink", attempt);
    } catch (const comm::CommFailure&) {
      account_failed_attempt();
      if (attempt >= plan_.max_restarts_) {
        finalize_failure(attempt);
        throw;
      }
      cfg.checkpoint.resume = !cfg.checkpoint.dir.empty();
      mark("recovery_restart", attempt);
    }
  }

  result_.recovery.final_ranks = active_ranks_;
  harvest_injector(options_.faults.get(), result_.recovery);
  write_artifacts();
}

UpdateStats Session::update(const EdgeBatch& batch) {
  if (!poisoned_.empty()) throw SessionPoisoned(poisoned_);
  if (batch.empty()) return {};

  // Cheap local validation up front: a malformed batch must throw without
  // touching session state (and without spinning up ranks).
  // Removal-of-an-absent-edge is graph-dependent and detected collectively
  // by with_edge_changes -- still before anything commits, because updates
  // build NEW per-rank slices and swap them in only on success.
  const auto n = static_cast<VertexId>(result_.community.size());
  for (const auto& c : batch.changes()) {
    if (c.u < 0 || c.u >= n || c.v < 0 || c.v >= n)
      throw std::invalid_argument("EdgeBatch: endpoint outside [0, num_vertices)");
    if (c.u == c.v) throw std::invalid_argument("EdgeBatch: self loops not allowed");
    if (!c.remove && !(c.weight > 0))
      throw std::invalid_argument("EdgeBatch: added weight must be > 0");
  }

  const util::WallTimer timer;
  auto cfg = plan_.dist_config();
  cfg.checkpoint = {};  // updates never checkpoint or resume

  const double prev_mod = result_.modularity;
  const auto& prev = result_.community;

  // Seed representative per community: its minimum member vertex id. The
  // warm start names communities in vertex-id space (the engine's community
  // ids ARE vertex ids), and the minimum is stable on every rank.
  std::vector<VertexId> rep(static_cast<std::size_t>(result_.num_communities),
                            kInvalidVertex);
  for (std::size_t v = 0; v < prev.size(); ++v) {
    auto& r = rep[static_cast<std::size_t>(prev[v])];
    if (r == kInvalidVertex) r = static_cast<VertexId>(v);
  }

  // Batch endpoints marked over all vertices: the reactivation probe, built
  // once and read by every rank thread.
  std::vector<char> touched(prev.size(), 0);
  for (const auto& c : batch.changes()) {
    touched[static_cast<std::size_t>(c.u)] = 1;
    touched[static_cast<std::size_t>(c.v)] = 1;
  }

  UpdateStats stats;
  for (const auto& c : batch.changes()) (c.remove ? stats.edges_removed : stats.edges_added) += 1;

  core::DistResult r;
  bool fell_back = false;
  std::int64_t reactivated = 0;
  long warm_iterations = 0;
  std::vector<graph::DistGraph> updated(rank_graphs_.size());

  // Bookkeeping for one DISCARDED attempt: its ladder counters, and all of
  // its traffic as waste (updates never checkpoint, so nothing was banked).
  const auto account_failed_attempt = [&] {
    harvest_ladder(*options_.metrics, result_.recovery);
    const util::MetricsSnapshot spent = options_.metrics->total();
    result_.recovery.wasted_messages += spent[util::Counter::kMessages];
    result_.recovery.wasted_bytes += spent[util::Counter::kBytes];
    result_.recovery.attempts += 1;
  };

  // Updates run at the session's CURRENT world size (shrunk sessions stay
  // shrunk: the dead rank's hardware is still gone).
  for (int attempt = 0;; ++attempt) {
    try {
      options_.metrics = std::make_shared<util::MetricsRegistry>(active_ranks_);
      comm::run(
          active_ranks_,
          [&](comm::Comm& comm) {
            const auto rk = static_cast<std::size_t>(comm.rank());
            // Build the post-batch slice beside the session's; the session's
            // graphs swap only after the whole collective succeeds, so a
            // crashed/failed update retries (or throws) against pristine
            // state.
            auto g = rank_graphs_[rk].with_edge_changes(comm, batch.changes());

            // Warm start: batch endpoints and their (post-batch)
            // neighbourhoods reactivate; everyone else is frozen into the
            // previous assignment, seeded through its representative.
            const VertexId local_n = g.local_count();
            core::WarmStart warm;
            warm.seed_community.resize(static_cast<std::size_t>(local_n));
            warm.reactivated.assign(static_cast<std::size_t>(local_n), 0);
            // Coarsening escalates on the same drift scale the fallback
            // uses: a batch that moves modularity less than the tolerated
            // drift exits at the (cheap) warm phase 0.
            warm.exit_threshold = plan_.update_fallback_;
            const auto hit = [&](VertexId gv) {
              return touched[static_cast<std::size_t>(gv)] != 0;
            };
            std::int64_t local_reactivated = 0;
            for (VertexId lv = 0; lv < local_n; ++lv) {
              const VertexId gv = g.to_global(lv);
              bool active = hit(gv);
              if (!active) {
                for (const auto& e : g.local().neighbors(lv)) {
                  if (hit(e.dst)) { active = true; break; }
                }
              }
              warm.reactivated[static_cast<std::size_t>(lv)] = active ? 1 : 0;
              local_reactivated += active ? 1 : 0;
              warm.seed_community[static_cast<std::size_t>(lv)] =
                  rep[static_cast<std::size_t>(prev[static_cast<std::size_t>(gv)])];
            }
            const auto global_reactivated =
                comm.allreduce_sum<std::int64_t>(local_reactivated);

            auto warm_graph = g;
            auto local = core::dist_louvain(comm, std::move(warm_graph), cfg,
                                            nullptr, &warm);
            const long iterations0 =
                local.phase_telemetry.empty() ? 0 : local.phase_telemetry.front().iterations;

            // Fallback: the warm result drifted too far below the previous
            // modularity -- the frozen skeleton no longer fits. The test is
            // rank-symmetric (modularity is collective-identical), so every
            // rank takes the same branch.
            const bool fb = local.modularity < prev_mod - plan_.update_fallback_;
            if (fb) {
              auto scratch = g;
              local = core::dist_louvain(comm, std::move(scratch), cfg);
            }

            updated[rk] = std::move(g);
            if (comm.rank() == 0) {
              r = std::move(local);
              fell_back = fb;
              reactivated = global_reactivated;
              warm_iterations = iterations0;
            }
          },
          options_);
      break;
    } catch (const comm::RankDead& e) {
      // A permanent death mid-update: the session's per-rank slices are
      // partitioned for a world that no longer exists, and a retry at the
      // old size can only hit the same dead rank again (kill triggers
      // re-fire until retired). Poison the session -- every later
      // update()/result() reports this cause -- and let the verdict
      // propagate. The pre-batch state itself is untouched (the new slices
      // are built beside it), but there is no world left to run it on.
      account_failed_attempt();
      result_.recovery.verdicts_dead += 1;
      poisoned_ = std::string("session poisoned by rank-death during update ") +
                  "(batch " + std::to_string(result_.updates.batches_applied + 1) +
                  "): " + e.what() + "; re-open the plan to continue";
      throw;
    } catch (const comm::CommFailure&) {
      account_failed_attempt();
      // Transient failure past the budget: propagate, but do NOT poison --
      // nothing committed (build-then-commit), so the next update() starts
      // from the pristine pre-batch state with a fresh restart budget.
      if (attempt >= plan_.max_restarts_) throw;
    }
  }
  harvest_ladder(*options_.metrics, result_.recovery);

  rank_graphs_ = std::move(updated);
  assign_scalars(result_, r);
  result_.distributed = std::move(r);
  harvest_injector(options_.faults.get(), result_.recovery);

  stats.vertices_reactivated = reactivated;
  stats.reconverge_iterations = warm_iterations;
  stats.fell_back_to_full = fell_back;
  stats.seconds = timer.seconds();

  result_.updates.batches_applied += 1;
  result_.updates.edges_added += stats.edges_added;
  result_.updates.edges_removed += stats.edges_removed;
  result_.updates.vertices_reactivated += stats.vertices_reactivated;
  result_.updates.reconverge_iterations += stats.reconverge_iterations;
  result_.updates.fallback_to_full += stats.fell_back_to_full ? 1 : 0;
  write_artifacts();
  return stats;
}

void Session::write_artifacts() const {
  if (options_.trace) {
    write_text_file(plan_.trace_path_, "trace", [&](std::ofstream& f) {
      options_.trace->write_chrome_trace(f);
    });
  }
  if (!plan_.metrics_path_.empty()) {
    write_text_file(plan_.metrics_path_, "metrics",
                    [&](std::ofstream& f) { f << result_.to_json() << '\n'; });
  }
}

}  // namespace dlouvain
