#include "oblivious/electrical.hpp"

#include <algorithm>

#include "graph/search.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "la/cg.hpp"

namespace sor {

namespace {
constexpr double kFlowEps = 1e-7;
}

ElectricalRouting::ElectricalRouting(const Graph& g) : ObliviousRouting(g) {
  SOR_CHECK_MSG(g.is_connected(),
                "electrical routing requires a connected graph");
}

const std::vector<double>& ElectricalRouting::flow(Vertex s, Vertex t) const {
  const VertexPair key = VertexPair::canonical(s, t);
  std::lock_guard lock(mu_);
  auto it = flow_cache_.find(key);
  if (it == flow_cache_.end()) {
    SOR_SPAN("oblivious/electrical_flow");
    it = flow_cache_.emplace(key, electrical_flow(*graph_, key.a, key.b))
             .first;
  }
  return it->second;
}

Path ElectricalRouting::sample_path(Vertex s, Vertex t, Rng& rng) const {
  SOR_CHECK(s != t);
  const VertexPair key = VertexPair::canonical(s, t);
  const std::vector<double>& f = flow(s, t);
  // Cached flow is oriented key.a → key.b; flip the sign convention when
  // sampling in the opposite direction.
  const double direction = (s == key.a) ? 1.0 : -1.0;

  // Walk from s to t along positive out-flow, picking edges ∝ flow. The
  // flow is potential-ordered, hence acyclic; with exact arithmetic the
  // walk must reach t. Guard with a step cap and simplify at the end to
  // absorb numerical noise.
  Path walk{s, s, {}};
  Vertex at = s;
  std::vector<double> weights;
  std::vector<EdgeId> choices;
  const std::size_t step_cap = 4 * graph_->num_vertices() + 16;
  for (std::size_t step = 0; step < step_cap && at != t; ++step) {
    weights.clear();
    choices.clear();
    for (const HalfEdge& h : graph_->neighbors(at)) {
      const Edge& e = graph_->edge(h.id);
      // Out-flow from `at` along this edge.
      const double signed_flow = direction * f[h.id];
      const double out =
          (e.u == at) ? signed_flow : -signed_flow;
      if (out > kFlowEps) {
        weights.push_back(out);
        choices.push_back(h.id);
      }
    }
    if (choices.empty()) break;  // numerical dead end; fall back below
    const std::size_t pick = rng.next_weighted(weights);
    walk.edges.push_back(choices[pick]);
    at = graph_->other_endpoint(choices[pick], at);
  }
  walk.dst = at;
  if (at != t) {
    // Numerical fallback: finish along a shortest path.
    const SpTree tree = bfs(*graph_, at);
    walk = concatenate(walk, tree.extract_path(*graph_, t));
  }
  return simplify_walk(*graph_, walk);
}

}  // namespace sor
