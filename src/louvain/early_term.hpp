// State for the Early Termination (ET) heuristic -- paper Section IV-B-b.
//
// Every vertex carries an activity probability P. While a vertex keeps its
// community across consecutive iterations, P decays geometrically by
// (1 - alpha); the moment it moves, P resets to 1 (paper Equation 3). A
// vertex participates in an iteration with probability P, drawn with a
// counter-based hash keyed on (seed, vertex, phase, iteration) so the
// outcome is identical at any thread or rank count. Once P falls below the
// cutoff (paper: 2%), the vertex is labelled inactive outright.
#pragma once

#include <cstdint>
#include <vector>

#include "util/prng.hpp"
#include "util/types.hpp"

namespace dlouvain::louvain {

/// The activity probability below which the engines label a vertex inactive
/// outright (paper: 2%).
inline constexpr double kEtInactiveCutoff = 0.02;

class EtState {
 public:
  EtState() = default;

  EtState(std::size_t count, double alpha, double cutoff, std::uint64_t seed)
      : alpha_(alpha), cutoff_(cutoff), seed_(seed), prob_(count, 1.0) {}

  /// Number of vertices tracked.
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  /// Is `idx` (keyed by global id `key`) active this (phase, iteration)?
  /// Inactive-labelled vertices are never active again within the phase.
  [[nodiscard]] bool is_active(std::size_t idx, VertexId key, int phase, int iter) const {
    const double p = prob_[idx];
    if (p < cutoff_) return false;
    if (p >= 1.0) return true;
    return util::hash_rand_unit(seed_, static_cast<std::uint64_t>(key),
                                static_cast<std::uint64_t>(phase),
                                static_cast<std::uint64_t>(iter)) < p;
  }

  /// Apply Equation 3 after the vertex's move decision.
  void update(std::size_t idx, bool moved) {
    if (moved) {
      prob_[idx] = 1.0;
    } else {
      prob_[idx] *= 1.0 - alpha_;
    }
  }

  /// Warm-start seeding (incremental updates): vertices flagged in `active`
  /// start fully active (P = 1), everything else starts frozen (P = 0, i.e.
  /// below any positive cutoff, so is_active() stays false for the rest of
  /// the phase). With alpha 0 the active set never decays -- how the
  /// non-ET variants keep every reactivated vertex live through the warm
  /// phase.
  void seed_activity(const std::vector<char>& active) {
    for (std::size_t i = 0; i < prob_.size() && i < active.size(); ++i)
      prob_[i] = active[i] != 0 ? 1.0 : 0.0;
  }

  /// Count of vertices labelled inactive (P below cutoff) -- the quantity the
  /// ETC variant sums globally.
  [[nodiscard]] std::int64_t inactive_count() const {
    std::int64_t count = 0;
    for (const double p : prob_) count += p < cutoff_ ? 1 : 0;
    return count;
  }

 private:
  double alpha_{0};
  double cutoff_{kEtInactiveCutoff};
  std::uint64_t seed_{0};
  std::vector<double> prob_;
};

}  // namespace dlouvain::louvain
