#include "core/failures.hpp"

#include <algorithm>

namespace sor {

FailureScenario random_edge_failures(const Graph& g, std::size_t count,
                                     Rng& rng) {
  SOR_CHECK_MSG(count < g.num_edges(), "cannot fail every edge");
  for (int attempt = 0; attempt < 1000; ++attempt) {
    FailureScenario scenario;
    scenario.alive.assign(g.num_edges(), true);
    // Distinct edges via partial Fisher–Yates over edge ids.
    std::vector<EdgeId> ids(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) ids[e] = e;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = i + rng.next_u64(ids.size() - i);
      std::swap(ids[i], ids[j]);
      scenario.alive[ids[i]] = false;
    }
    // Keep only scenarios that preserve connectivity (standard in TE
    // robustness studies: the network is engineered to survive f faults).
    if (surviving_graph(g, scenario).is_connected()) return scenario;
  }
  throw CheckError("no connectivity-preserving failure scenario found");
}

PathSystem surviving_paths(const PathSystem& system,
                           const FailureScenario& scenario) {
  PathSystem out;
  for (const VertexPair& pair : system.pairs()) {
    for (const PathView p : system.paths(pair.a, pair.b)) {
      bool ok = true;
      for (EdgeId e : p.edges) {
        if (!scenario.alive[e]) {
          ok = false;
          break;
        }
      }
      if (ok) out.add(p);
    }
  }
  return out;
}

std::vector<VertexPair> stranded_pairs(const PathSystem& system,
                                       const FailureScenario& scenario) {
  std::vector<VertexPair> stranded;
  for (const VertexPair& pair : system.pairs()) {
    bool any = false;
    for (const PathView p : system.paths(pair.a, pair.b)) {
      bool ok = true;
      for (EdgeId e : p.edges) {
        if (!scenario.alive[e]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        any = true;
        break;
      }
    }
    if (!any) stranded.push_back(pair);
  }
  return stranded;
}

Graph surviving_graph(const Graph& g, const FailureScenario& scenario,
                      std::vector<EdgeId>* edge_map) {
  SOR_CHECK(scenario.alive.size() == g.num_edges());
  Graph out(g.num_vertices());
  if (edge_map != nullptr) edge_map->assign(g.num_edges(), kInvalidEdge);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!scenario.alive[e]) continue;
    const Edge& edge = g.edge(e);
    const EdgeId id = out.add_edge(edge.u, edge.v, edge.capacity);
    if (edge_map != nullptr) (*edge_map)[e] = id;
  }
  return out;
}

}  // namespace sor
