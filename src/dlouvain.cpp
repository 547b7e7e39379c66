#include "dlouvain.hpp"

#include <string>
#include <utility>

#include "core/metrics.hpp"

namespace dlouvain {

core::DistConfig Plan::dist_config() const {
  core::DistConfig cfg;
  cfg.base.threshold = threshold_;
  cfg.base.max_phases = max_phases_;
  cfg.base.max_iterations_per_phase = max_iterations_;
  cfg.base.resolution = resolution_;
  cfg.base.early_termination = variant_ == Variant::kEt || variant_ == Variant::kEtc;
  cfg.base.et_alpha = alpha_;
  cfg.base.seed = seed_;
  cfg.variant = variant_;
  cfg.use_coloring = coloring_;
  cfg.threads_per_rank = threads_;
  // Effective checkpoint directory: checkpointing() wins when both are set
  // (validate() rejects two DIFFERENT directories); resume() alone keeps
  // checkpointing into the directory it resumes from.
  cfg.checkpoint.dir = !checkpoint_dir_.empty() ? checkpoint_dir_ : resume_dir_;
  cfg.checkpoint.every = checkpoint_every_;
  cfg.checkpoint.resume = resume_;
  return cfg;
}

void Plan::validate() const {
  const auto fail = [](std::string msg) { throw PlanError(std::move(msg)); };

  if (threshold_ < 0) fail("threshold() must be >= 0");
  if (resolution_ <= 0) fail("resolution() must be > 0");
  if (max_phases_ < 1) fail("max_phases() must be >= 1");
  if (max_iterations_ < 1) fail("max_iterations() must be >= 1");
  if (update_fallback_ < 0) fail("update_fallback() must be >= 0");
  if ((variant_ == Variant::kEt || variant_ == Variant::kEtc) &&
      (alpha_ <= 0 || alpha_ > 1)) {
    fail("alpha() must be in (0, 1] for the ET/ETC variants");
  }
  if (!checkpoint_dir_.empty() && checkpoint_every_ < 1)
    fail("checkpointing() interval must be >= 1");
  if (retransmit_max_ < 0) fail("retransmit() attempts must be >= 0");
  if (retransmit_max_ > 0 && !(retransmit_backoff_ms_ > 0))
    fail("retransmit() backoff must be > 0 ms");
  if (resume_ && resume_dir_.empty())
    fail("resume() needs a checkpoint directory");
  if (resume_ && !checkpoint_dir_.empty() && resume_dir_ != checkpoint_dir_) {
    fail("checkpointing(\"" + checkpoint_dir_ + "\") and resume(\"" + resume_dir_ +
         "\") name different directories; use one directory (or drop one call)");
  }
  if (ranks_ < 1) fail("distributed() needs at least 1 rank");
}

Result Plan::run(const graph::Csr& g) const {
  Session session = open(g);
  return std::move(session.result_);
}

Session Plan::open(const graph::Csr& g) const {
  validate();
  Session session(*this);
  session.run_initial(g);
  return session;
}

std::string Result::to_json() const {
  // A run that failed for good has no DistResult; its best-effort manifest
  // keeps the one shape with zeroed result fields. Both arms are lvalues, so
  // a completed run's result is not copied.
  const core::DistResult failed;
  std::string out = core::dist_result_to_json(distributed ? *distributed : failed);
  out.pop_back();  // reopen the object to append the driver-level sections
  out += ",\"updates\":";
  core::append_updates_json(out, updates);
  out += ",\"recovery\":{\"attempts\":" + std::to_string(recovery.attempts);
  out += ",\"phases_replayed\":" + std::to_string(recovery.phases_replayed);
  out += ",\"resumed_from_phase\":" + std::to_string(recovery.resumed_from_phase);
  out += ",\"wasted_messages\":" + std::to_string(recovery.wasted_messages);
  out += ",\"wasted_bytes\":" + std::to_string(recovery.wasted_bytes);
  out += ",\"injected_delays\":" + std::to_string(recovery.injected_delays);
  out += ",\"injected_duplicates\":" + std::to_string(recovery.injected_duplicates);
  out += ",\"injected_corruptions\":" + std::to_string(recovery.injected_corruptions);
  out += ",\"injected_crashes\":" + std::to_string(recovery.injected_crashes);
  out += ",\"injected_losses\":" + std::to_string(recovery.injected_losses);
  // The graduated-ladder telemetry (schema v3; docs/FAULT_TOLERANCE.md):
  // rung 1 = link repair, rung 2 = verdicts, rung 3 = shrink-to-survivors.
  out += ",\"ladder\":{\"nacks\":" + std::to_string(recovery.nacks);
  out += ",\"retransmits\":" + std::to_string(recovery.retransmits);
  out += ",\"backoff_ms\":" + std::to_string(recovery.backoff_ms);
  out += ",\"escalations\":" + std::to_string(recovery.escalations);
  out += ",\"slow_verdict_extensions\":" + std::to_string(recovery.slow_verdict_extensions);
  out += ",\"verdicts_dead\":" + std::to_string(recovery.verdicts_dead);
  out += ",\"shrinks\":" + std::to_string(recovery.shrinks);
  out += ",\"final_ranks\":" + std::to_string(recovery.final_ranks);
  out += "}}}";
  return out;
}

}  // namespace dlouvain
