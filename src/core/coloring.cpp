#include "core/coloring.hpp"

#include <algorithm>

#include "core/ghost_exchange.hpp"
#include "util/prng.hpp"

namespace dlouvain::core {

namespace {

constexpr std::int64_t kUncolored = -1;

/// Total priority order: pseudo-random primary key, vertex id tiebreak.
/// Stateless, so every rank evaluates any vertex's priority locally.
bool higher_priority(std::uint64_t seed, VertexId a, VertexId b) {
  const auto pa = util::mix64(seed ^ static_cast<std::uint64_t>(a));
  const auto pb = util::mix64(seed ^ static_cast<std::uint64_t>(b));
  return pa != pb ? pa > pb : a > b;
}

/// Smallest colour not present in `used` (sorted not required).
std::int64_t smallest_free_color(std::vector<std::int64_t>& used) {
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  std::int64_t color = 0;
  for (const auto c : used) {
    if (c < 0) continue;
    if (c != color) break;
    ++color;
  }
  return color;
}

}  // namespace

ColoringResult distance1_coloring(comm::Comm& comm, const graph::DistGraph& g,
                                  std::uint64_t seed) {
  const VertexId local_n = g.local_count();
  const auto& row = g.local().offsets();
  const auto& arcs = g.local().edges();
  const auto& dst_slot = g.dst_slots();

  ColoringResult result;
  result.color.assign(static_cast<std::size_t>(local_n), kUncolored);
  GhostField<std::int64_t> ghost_colors(g, kUncolored);

  std::vector<std::int64_t> used;
  std::int64_t local_uncolored = local_n;

  for (;;) {
    std::int64_t global_uncolored = comm.allreduce_sum(local_uncolored);
    if (global_uncolored == 0) break;
    ++result.rounds;

    ghost_colors.exchange(comm, result.color);

    // Round-start snapshot of which LOCAL vertices are uncolored: maxima are
    // judged against the state every rank sees at the round boundary, so the
    // no-adjacent-winners guarantee holds globally.
    std::vector<char> was_uncolored(static_cast<std::size_t>(local_n), 0);
    for (VertexId lv = 0; lv < local_n; ++lv)
      was_uncolored[static_cast<std::size_t>(lv)] =
          result.color[static_cast<std::size_t>(lv)] == kUncolored ? 1 : 0;

    for (VertexId lv = 0; lv < local_n; ++lv) {
      if (!was_uncolored[static_cast<std::size_t>(lv)]) continue;
      const VertexId gv = g.to_global(lv);

      bool is_max = true;
      used.clear();
      const auto a_end = static_cast<std::size_t>(row[static_cast<std::size_t>(lv) + 1]);
      for (auto a = static_cast<std::size_t>(row[static_cast<std::size_t>(lv)]); a < a_end;
           ++a) {
        const VertexId dst = arcs[a].dst;
        if (dst == gv) continue;
        const std::int64_t d = dst_slot[a];
        std::int64_t neighbor_color;
        bool neighbor_uncolored_at_round_start;
        if (d < local_n) {
          neighbor_color = result.color[static_cast<std::size_t>(d)];
          neighbor_uncolored_at_round_start = was_uncolored[static_cast<std::size_t>(d)] != 0;
        } else {
          neighbor_color = ghost_colors.values()[static_cast<std::size_t>(d - local_n)];
          neighbor_uncolored_at_round_start = neighbor_color == kUncolored;
        }
        if (neighbor_uncolored_at_round_start && higher_priority(seed, dst, gv)) {
          is_max = false;
          break;
        }
        used.push_back(neighbor_color);
      }
      if (!is_max) continue;

      result.color[static_cast<std::size_t>(lv)] = smallest_free_color(used);
      --local_uncolored;
    }
  }

  std::int64_t local_max = -1;
  for (const auto c : result.color) local_max = std::max(local_max, c);
  result.num_colors = comm.allreduce_max(local_max) + 1;
  return result;
}

ColoringResult distance1_coloring_serial(const graph::Csr& g) {
  ColoringResult result;
  result.color.assign(static_cast<std::size_t>(g.num_vertices()), kUncolored);
  result.rounds = 1;
  std::vector<std::int64_t> used;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    used.clear();
    for (const auto& e : g.neighbors(v)) {
      if (e.dst == v) continue;
      used.push_back(result.color[static_cast<std::size_t>(e.dst)]);
    }
    result.color[static_cast<std::size_t>(v)] = smallest_free_color(used);
  }
  std::int64_t max_color = -1;
  for (const auto c : result.color) max_color = std::max(max_color, c);
  result.num_colors = max_color + 1;
  return result;
}

}  // namespace dlouvain::core
