// Phase-boundary checkpoints for crash-recovery restart (ISSUE 2, part 3).
//
// The distributed Louvain outer loop is a chain of phases; everything a
// resumed run needs at the top of phase k is (a) the current coarse graph,
// (b) each original vertex's current meta-vertex id (the orig_to_cur chain),
// and (c) a handful of scalars (phase index, outer-loop modularity watermark,
// forced-final flag, cumulative counters). All other per-phase state --
// ghosts, community ledger, ET probabilities, sweep-order PRNG -- is
// reconstructed from scratch at each phase start by run_phase, keyed only on
// (config seed, partition, phase), so a checkpoint at a phase boundary is
// sufficient for bitwise-identical continuation at the same rank count.
//
// On-disk layout (one directory per job):
//   <dir>/phase_<k>/state.bin    one CRC32-sealed record, in order: magic and
//                                version; next phase, phases done, iterations
//                                done; prev_outer_mod (raw bits) and the
//                                forced-final flag; the run counters (seconds
//                                bits, messages, bytes); the config
//                                fingerprint; orig_global_n, then the
//                                orig_to_cur chain (orig_global_n ids)
//   <dir>/phase_<k>/graph.dlel   coarse graph via graph::write_distributed
//
// Each format has one version. Validation, the recovery driver's peek and
// the load all parse state.bin with the same code: a record whose CRC, magic,
// version, field ranges or length do not check out -- or whose graph.dlel
// fails its CRC or lacks a vertex its chain names -- is skipped, and the next
// older checkpoint (or a fresh start) is used instead.
//
// Writes are atomic: everything lands in a tmp directory that is renamed
// into place, so a crash mid-checkpoint leaves the previous checkpoint
// intact. A fingerprint mismatch -- resuming with a DIFFERENT config, which
// would silently produce wrong results -- throws instead of falling back.
//
// Determinism contract: resuming at the SAME rank count reproduces the
// uninterrupted run bit for bit (test_robustness.cpp proves it for every
// kill point): a checkpointed graph is always a rebuild output on the
// even-vertices split, which every load recomputes, so a same-p resume
// lands on the exact partition. Resuming at a DIFFERENT rank count is
// supported -- the graph is repartitioned on load -- and yields a valid
// clustering with exact bookkeeping, but not the same bits: sweep orders
// are keyed on partition offsets, so the move sequence legitimately differs.
//
// Different-p resume is also the machinery behind the rung-3 shrink
// (docs/FAULT_TOLERANCE.md): when a rank is declared DEAD, the Session
// recovery driver resumes from the newest checkpoint at p-1 ranks. Nothing
// here is shrink-specific -- the config fingerprint deliberately excludes
// the rank count, so a p-rank checkpoint loads at any p' >= 1, and a shrink
// resume is bit-for-bit the same computation as a user-initiated clean
// resume at p-1 (test_recovery_soak.cpp proves that equivalence).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/dist_config.hpp"
#include "graph/dist_graph.hpp"
#include "util/types.hpp"

namespace dlouvain::core {

/// Thrown when a checkpoint directory is already owned by another live run.
/// Two concurrent runs checkpointing into the same directory silently
/// interleave phase files (each prunes and overwrites the other's
/// checkpoints), so ownership is exclusive per directory. `owner` is the
/// LOCK file's contents describing the current holder.
class CheckpointDirBusy : public std::runtime_error {
 public:
  CheckpointDirBusy(std::string owner_line, const std::string& dir)
      : std::runtime_error("checkpoint directory '" + dir +
                           "' is in use by " + owner_line),
        owner(std::move(owner_line)) {}
  std::string owner;
};

/// Exclusive advisory ownership of one checkpoint directory, held for the
/// lifetime of the run (Session) that checkpoints into it. Implemented as an
/// O_CREAT|O_EXCL `<dir>/LOCK` pidfile recording "pid <pid> session <tag>";
/// a lock whose pid no longer exists (crashed process) is stale and is
/// reclaimed, so recovery-by-resume after a hard crash still works. Throws
/// CheckpointDirBusy when the directory is owned by a live holder -- either
/// another process, or another Session in THIS process (same pid, different
/// tag). Move-only; releases (unlinks) on destruction.
class CheckpointDirLock {
 public:
  CheckpointDirLock(std::string dir, std::string owner_tag);
  ~CheckpointDirLock();
  CheckpointDirLock(CheckpointDirLock&& other) noexcept;
  CheckpointDirLock& operator=(CheckpointDirLock&& other) noexcept;
  CheckpointDirLock(const CheckpointDirLock&) = delete;
  CheckpointDirLock& operator=(const CheckpointDirLock&) = delete;

  /// The "pid <pid> session <tag>" line this lock wrote.
  [[nodiscard]] const std::string& owner_line() const noexcept { return owner_line_; }

 private:
  void release() noexcept;

  std::string path_;  ///< empty after move-out / release
  std::string owner_line_;
};

/// Cumulative global run counters at a phase boundary: wall seconds elapsed
/// and ALGORITHM messages/bytes (checkpoint I/O excluded) since the original
/// job start, summed over all ranks. Persisted so a resumed run reports
/// whole-job totals, consistent with phases/total_iterations (the satellite-3
/// fix; the reporting rule is documented in core/telemetry.hpp).
struct RunCounters {
  double seconds{0};
  std::int64_t messages{0};
  std::int64_t bytes{0};
};

/// Outer-loop scalars saved at a phase boundary ("about to run next_phase").
struct CheckpointState {
  int next_phase{0};
  int phases_done{0};
  std::int64_t iterations_done{0};
  Weight prev_outer_mod{0};  ///< stored as raw bits, restored exactly
  bool forced_final{false};
  RunCounters counters;  ///< cumulative totals at this boundary
};

/// Everything checkpoint_load reconstructs for this rank.
struct ResumedState {
  graph::DistGraph graph;              ///< repartitioned for the CURRENT p
  std::vector<VertexId> orig_to_cur;   ///< this rank's contiguous chain slice
  VertexId orig_global_n{0};
  CheckpointState state;
};

/// Hash of every config field that influences the trajectory of a run.
/// Stored in each checkpoint and required to match on resume.
std::uint64_t config_fingerprint(const DistConfig& cfg);

/// Collective: write the checkpoint for `state.next_phase` into `dir`
/// (created if needed). `orig_to_cur` is this rank's slice, concatenating in
/// rank order to the full original-vertex array. Older checkpoints in `dir`
/// are pruned once the new one is committed.
void checkpoint_save(comm::Comm& comm, const std::string& dir,
                     const graph::DistGraph& g, std::span<const VertexId> orig_to_cur,
                     VertexId orig_global_n, const CheckpointState& state,
                     std::uint64_t fingerprint);

/// Collective: load the newest valid checkpoint from `dir`, or nullopt if
/// none exists (start fresh). Rank 0 picks and validates the checkpoint and
/// every rank agrees on the outcome. Throws if the stored config fingerprint
/// does not match `fingerprint`.
std::optional<ResumedState> checkpoint_load(comm::Comm& comm, const std::string& dir,
                                            std::uint64_t fingerprint);

/// Non-collective: remove every phase_<k> checkpoint in `dir` (a missing
/// directory holds none). A fresh, non-resuming run calls it once it owns
/// the directory, so none of its restarts resumes another job's checkpoint.
void checkpoint_clear(const std::string& dir);

/// Non-collective peek (for the recovery driver between attempts): the
/// scalars of the newest valid checkpoint in `dir` -- the phase a resume
/// would enter and the run counters it has banked -- or nullopt if none.
/// The driver uses before/after deltas of the counters to split a failed
/// attempt's traffic into salvaged (checkpointed) and wasted.
std::optional<CheckpointState> checkpoint_latest(const std::string& dir);

}  // namespace dlouvain::core
