// Segmented-reduction sweep kernel: the sorted-neighbor layout from
// Forster's GPU Louvain, built on an epoch-stamped slot array. Every
// engine's local-move scan runs it.
//
// For one vertex at a time, the kernel groups the vertex's arcs by
// destination-community slot as they stream by (STABLE first-touch
// grouping), producing dense, contiguous arrays:
//
//   slots[i]  -- the i-th distinct community slot, in first-touch order
//   sums[i]   -- e_{v -> slots[i]}, accumulated left-to-right in scan order
//   (scratch) -- per-segment degree / gain arrays of the split passes
//
// Bitwise contract: segments appear in the order the adjacency scan first
// touches their slot, and each segment's sum adds its arcs' weights one by
// one in scan order (`sums_[seg] += w`), never tree-reduced. Both are
// functions of the adjacency order alone -- no hashing, no thread count --
// so every floating-point bit is reproducible. The ∆Q selection (max gain,
// strictly positive, smallest community id on ties) is visit-order
// independent, so best_segment() splits that loop into a degree gather, a
// dense element-wise gain pass the compiler vectorizes (contiguous loads,
// no calls, no branches), and a scalar argmax scan.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/types.hpp"

// Function multiversioning for the dense gain pass: when the translation
// unit is built for baseline x86-64 (no -mavx2), emit an additional AVX2
// clone of the pass and let CPU detection pick it at runtime (a platform
// dispatch, not an option). target("avx2") deliberately does NOT enable
// FMA, so the compiler cannot contract a*b+c -- the AVX2 clone is bitwise
// identical to the scalar/SSE2 code, just 4 doubles wide (vdivpd halves the
// per-element divide throughput that bounds the pass).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__AVX2__)
#define DLOUVAIN_SEGMENTED_MULTIVERSION 1
#else
#define DLOUVAIN_SEGMENTED_MULTIVERSION 0
#endif

namespace dlouvain::util {

/// Stable group-by-slot accumulator. add() streams arcs in scan order;
/// segments appear in first-touch order and each segment's sum accumulates
/// left-to-right. One per thread (not thread-safe), reused across vertices
/// and batches.
///
/// Layout: epoch stamp and segment index share one packed 64-bit mark word
/// per slot (epoch high 32, segment low 32), so the random-access side of
/// add() touches exactly ONE cache line per arc, where separate stamp and
/// value arrays would touch two. reset() bumps the epoch instead of
/// clearing, so per-vertex reuse costs O(slots touched). The dense arrays
/// are pre-sized to the reset() capacity, which makes the first-touch path
/// branch-free (plain overwrites, no push_back).
template <typename V>
class SegmentedAccumulator {
 public:
  /// Start a fresh vertex over slots [0, capacity). O(1) amortised -- the
  /// epoch bump in the packed marks invalidates stale segment entries.
  void reset(std::size_t capacity) {
    if (capacity > mark_.size()) {
      mark_.resize(capacity, 0);
      slots_.resize(capacity);
      sums_.resize(capacity);
    }
    count_ = 0;
    if (++epoch_ == 0) {  // wrapped: stale marks could alias epoch 0
      std::fill(mark_.begin(), mark_.end(), std::uint64_t{0});
      epoch_ = 1;
    }
  }

  /// sums[segment_of(slot)] += w, opening a new segment on first touch.
  void add(std::int64_t slot, V w) {
    assert(slot >= 0 && static_cast<std::size_t>(slot) < mark_.size() &&
           "SegmentedAccumulator::add: slot outside reset() capacity");
    const auto s = static_cast<std::size_t>(slot);
    const std::uint64_t mk = mark_[s];
    if ((mk >> 32) == epoch_) {
      sums_[static_cast<std::uint32_t>(mk)] += w;
    } else {
      mark_[s] = (static_cast<std::uint64_t>(epoch_) << 32) | count_;
      slots_[count_] = slot;
      sums_[count_] = w;
      ++count_;
    }
  }

  /// Number of distinct slots touched since reset().
  [[nodiscard]] std::size_t segments() const noexcept { return count_; }

  /// Distinct slots in first-touch order.
  [[nodiscard]] const std::int64_t* slots() const noexcept { return slots_.data(); }

  /// Per-segment scan-order sums, aligned with slots().
  [[nodiscard]] const V* sums() const noexcept { return sums_.data(); }

  /// Segment index of `slot`, or -1 if untouched this epoch.
  [[nodiscard]] std::int64_t segment_of(std::int64_t slot) const {
    assert(slot >= 0 && static_cast<std::size_t>(slot) < mark_.size() &&
           "SegmentedAccumulator::segment_of: slot outside reset() capacity");
    const std::uint64_t mk = mark_[static_cast<std::size_t>(slot)];
    return (mk >> 32) == epoch_
               ? static_cast<std::int64_t>(static_cast<std::uint32_t>(mk))
               : -1;
  }

  /// Sum for `slot` (V{} if untouched).
  [[nodiscard]] V sum_of(std::int64_t slot) const {
    const std::int64_t seg = segment_of(slot);
    return seg >= 0 ? sums_[static_cast<std::size_t>(seg)] : V{};
  }

  /// Dense per-segment scratch (degree gather / gain output) for
  /// best_segment()'s split passes; grown lazily to segments().
  [[nodiscard]] V* deg_scratch() {
    if (deg_.size() < count_) deg_.resize(count_);
    return deg_.data();
  }
  [[nodiscard]] V* gain_scratch() {
    if (gain_.size() < count_) gain_.resize(count_);
    return gain_.data();
  }

 private:
  // slot -> (epoch << 32 | segment index); the single random-access array.
  std::vector<std::uint64_t> mark_;
  std::uint32_t epoch_{0};
  std::uint32_t count_{0};
  std::vector<std::int64_t> slots_;
  std::vector<V> sums_;
  std::vector<V> deg_;   // split-pass scratch, aligned with slots_
  std::vector<V> gain_;  // split-pass scratch, aligned with slots_
};

/// Outcome of one vertex's ∆Q argmax: the winning segment index into the
/// accumulator's arrays, or -1 to stay put.
struct BestSegment {
  std::int64_t segment{-1};
};

namespace detail {

/// The dense element-wise gain pass of best_segment(). The AVX2 clone below
/// repeats the expression token for token -- any edit must change both
/// copies together or the platform dispatch stops being bitwise identical.
inline void gain_pass(std::size_t n, const double* __restrict sums,
                      const double* __restrict deg, double* __restrict gain,
                      double e_own, double a_own_less_v, double kv, double m,
                      double gamma) {
  for (std::size_t i = 0; i < n; ++i) {
    gain[i] =
        (sums[i] - e_own) / m - gamma * kv * (deg[i] - a_own_less_v) / (2 * m * m);
  }
}

#if DLOUVAIN_SEGMENTED_MULTIVERSION
/// AVX2 clone of gain_pass (runtime-dispatched). No FMA in the target set,
/// so every operation rounds exactly like the scalar code -- same bits,
/// twice the divide throughput (vdivpd ymm).
__attribute__((target("avx2"), noinline)) inline void gain_pass_avx2(
    std::size_t n, const double* __restrict sums, const double* __restrict deg,
    double* __restrict gain, double e_own, double a_own_less_v, double kv,
    double m, double gamma) {
  for (std::size_t i = 0; i < n; ++i) {
    gain[i] =
        (sums[i] - e_own) / m - gamma * kv * (deg[i] - a_own_less_v) / (2 * m * m);
  }
}

[[nodiscard]] inline bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}
#endif

inline void dispatch_gain_pass(std::size_t n, const double* sums,
                               const double* deg, double* gain, double e_own,
                               double a_own_less_v, double kv, double m,
                               double gamma) {
#if DLOUVAIN_SEGMENTED_MULTIVERSION
  if (cpu_has_avx2()) {
    gain_pass_avx2(n, sums, deg, gain, e_own, a_own_less_v, kv, m, gamma);
    return;
  }
#endif
  gain_pass(n, sums, deg, gain, e_own, a_own_less_v, kv, m, gamma);
}

}  // namespace detail

/// ∆Q argmax over the segments of one vertex. `own_segment` is
/// seg.segment_of(own_slot) (-1 if no arc points into the own community),
/// `e_own` the matching sum (0 if absent). `deg_of(slot)` returns the
/// candidate community's total degree a_c, `id_of(slot)` its community id
/// (the tie key). Selection rule -- shared verbatim by all engines: the
/// strictly-positive maximum of
///
///   gain = (e_target - e_own) / m - gamma * kv * (a_target - a_own_less_v)
///                                   / (2 * m * m)
///
/// with ties broken toward the smallest community id. Three dense passes:
/// gather degrees, element-wise gain (vectorizable: contiguous loads, no
/// calls), argmax.
template <typename V, typename DegOf, typename IdOf>
[[nodiscard]] inline BestSegment best_segment(SegmentedAccumulator<V>& seg,
                                              std::int64_t own_segment, V e_own,
                                              V a_own_less_v, V kv, V m,
                                              double gamma, DegOf&& deg_of,
                                              IdOf&& id_of) {
  const std::size_t n = seg.segments();
  const std::int64_t* slots = seg.slots();
  const V* sums = seg.sums();

  V* deg = seg.deg_scratch();
  V* gain = seg.gain_scratch();
  for (std::size_t i = 0; i < n; ++i) deg[i] = deg_of(slots[i]);
  // The vector pass: every operand is a contiguous load or a scalar
  // broadcast and the expression is never reassociated, so the loop
  // vectorizes without changing a bit -- 4-wide AVX2 via the
  // runtime-dispatched clone where the CPU has it.
  detail::dispatch_gain_pass(n, sums, deg, gain, e_own, a_own_less_v, kv, m, gamma);
  // Branchless running max (compiles to maxsd, no mispredicts), then a rare
  // resolve pass. The own segment needs no skip here: its first term is
  // exactly +-0 (sums[own] == e_own) and its second is non-negative for
  // non-negative weights, so its gain can never reach a strictly positive
  // max; the resolve pass still excludes it for belt-and-braces. Selection
  // is "max gain, then smallest community id" -- visit-order independent.
  V max_gain = 0;
  for (std::size_t i = 0; i < n; ++i)
    max_gain = gain[i] > max_gain ? gain[i] : max_gain;
  if (!(max_gain > 0)) return BestSegment{-1};
  std::int64_t best_seg = -1;
  CommunityId best_id = std::numeric_limits<CommunityId>::max();
  for (std::size_t i = 0; i < n; ++i) {
    if (gain[i] == max_gain && static_cast<std::int64_t>(i) != own_segment) {
      const CommunityId target = id_of(slots[i]);
      if (best_seg < 0 || target < best_id) {
        best_seg = static_cast<std::int64_t>(i);
        best_id = target;
      }
    }
  }
  return BestSegment{best_seg};
}

}  // namespace dlouvain::util
