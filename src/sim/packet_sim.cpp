#include "sim/packet_sim.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace sor {

SimResult simulate_store_and_forward(const Graph& g,
                                     std::span<const Path> packet_paths,
                                     Rng& rng) {
  SOR_SPAN("sim/store_and_forward");
  SimResult result;

  struct PacketState {
    std::size_t next_edge = 0;  // index into its path
    std::uint64_t rank = 0;     // LMR random priority, fixed at start
  };
  std::vector<PacketState> packets(packet_paths.size());
  std::size_t in_flight = 0;
  std::vector<std::size_t> edge_use(g.num_edges(), 0);
  for (std::size_t i = 0; i < packet_paths.size(); ++i) {
    SOR_DCHECK(is_walk(g, packet_paths[i]));
    packets[i].rank = rng();
    if (!packet_paths[i].edges.empty()) ++in_flight;
    result.dilation = std::max(result.dilation, packet_paths[i].hops());
    for (EdgeId e : packet_paths[i].edges) ++edge_use[e];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    result.max_edge_packets = std::max(result.max_edge_packets, edge_use[e]);
  }
  if (in_flight == 0) return result;

  // Per-edge service rate (packets per step).
  std::vector<std::size_t> rate(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    rate[e] = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(g.edge(e).capacity)));
  }

  // Queue per edge: packets waiting to traverse it, served lowest-rank
  // first. Rebuilt lazily each step from the waiting set — simple and
  // fast enough for the experiment sizes.
  std::vector<std::vector<std::size_t>> waiting(g.num_edges());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (!packet_paths[i].edges.empty()) {
      waiting[packet_paths[i].edges[0]].push_back(i);
    }
  }

  std::size_t step = 0;
  const std::size_t step_limit =
      10 * (result.max_edge_packets + result.dilation + 1) *
      std::max<std::size_t>(packets.size(), 1);
  while (in_flight > 0) {
    ++step;
    SOR_CHECK_MSG(step < step_limit, "simulator failed to converge");
    std::vector<std::pair<EdgeId, std::size_t>> moves;  // (edge, packet)
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      auto& queue = waiting[e];
      if (queue.empty()) continue;
      SOR_SKETCH("sim/queue_occupancy")
          .observe(static_cast<double>(queue.size()));
      const std::size_t serve = std::min(rate[e], queue.size());
      std::partial_sort(queue.begin(),
                        queue.begin() + static_cast<std::ptrdiff_t>(serve),
                        queue.end(), [&](std::size_t a, std::size_t b) {
                          return packets[a].rank < packets[b].rank;
                        });
      for (std::size_t i = 0; i < serve; ++i) {
        moves.emplace_back(e, queue[i]);
      }
      queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(serve));
    }
    for (const auto& [edge, packet_id] : moves) {
      PacketState& packet = packets[packet_id];
      ++packet.next_edge;
      const Path& path = packet_paths[packet_id];
      if (packet.next_edge >= path.edges.size()) {
        --in_flight;
      } else {
        waiting[path.edges[packet.next_edge]].push_back(packet_id);
      }
    }
  }
  result.makespan = step;
  return result;
}

}  // namespace sor
