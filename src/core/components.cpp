#include "core/components.hpp"

#include <algorithm>
#include <numeric>

#include "core/ghost_exchange.hpp"

namespace dlouvain::core {

DistComponentsResult dist_connected_components(comm::Comm& comm,
                                               const graph::DistGraph& g) {
  const VertexId local_n = g.local_count();
  const auto& row = g.local().offsets();
  const auto& arcs = g.local().edges();
  const auto& dst_slot = g.dst_slots();

  DistComponentsResult result;
  result.component.resize(static_cast<std::size_t>(local_n));
  std::iota(result.component.begin(), result.component.end(), g.v_begin());
  auto ghost_labels = GhostField<VertexId>::identity(g);

  for (;;) {
    ghost_labels.exchange(comm, result.component);

    // Local sweeps to a LOCAL fixed point before the next exchange: label
    // drops propagate through the local subgraph at full speed and only
    // cross-rank hops pay a communication round.
    std::int64_t local_changes = 0;
    bool swept_changes = true;
    while (swept_changes) {
      swept_changes = false;
      for (VertexId lv = 0; lv < local_n; ++lv) {
        const VertexId gv = g.to_global(lv);
        VertexId label = result.component[static_cast<std::size_t>(lv)];
        const auto a_end = static_cast<std::size_t>(row[static_cast<std::size_t>(lv) + 1]);
        for (auto a = static_cast<std::size_t>(row[static_cast<std::size_t>(lv)]); a < a_end;
             ++a) {
          if (arcs[a].dst == gv) continue;
          const std::int64_t d = dst_slot[a];
          const VertexId other =
              d < local_n ? result.component[static_cast<std::size_t>(d)]
                          : ghost_labels.values()[static_cast<std::size_t>(d - local_n)];
          label = std::min(label, other);
        }
        if (label < result.component[static_cast<std::size_t>(lv)]) {
          result.component[static_cast<std::size_t>(lv)] = label;
          swept_changes = true;
          ++local_changes;
        }
      }
    }

    ++result.rounds;
    if (comm.allreduce_sum(local_changes) == 0) break;
  }

  // A component is counted by the rank owning its label (the smallest
  // member id, which the owner of that vertex always holds).
  VertexId local_roots = 0;
  for (VertexId lv = 0; lv < local_n; ++lv) {
    if (result.component[static_cast<std::size_t>(lv)] == g.to_global(lv)) ++local_roots;
  }
  result.count = comm.allreduce_sum(local_roots);
  return result;
}

}  // namespace dlouvain::core
