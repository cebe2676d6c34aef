#include "oblivious/shortest_path.hpp"

namespace sor {

ShortestPathRouting::ShortestPathRouting(const Graph& g, Metric metric)
    : ObliviousRouting(g), metric_(metric) {
  lengths_.resize(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    lengths_[e] =
        metric == Metric::kHops ? 1.0 : 1.0 / g.edge(e).capacity;
  }
}

const SpTree& ShortestPathRouting::tree_from(Vertex s) const {
  std::lock_guard lock(mu_);
  auto it = cache_.find(s);
  if (it == cache_.end()) {
    it = cache_.emplace(s, dijkstra(*graph_, s, lengths_)).first;
  }
  return it->second;
}

Path ShortestPathRouting::sample_path(Vertex s, Vertex t, Rng& /*rng*/) const {
  SOR_CHECK(s != t);
  return tree_from(s).extract_path(*graph_, t);
}

std::string ShortestPathRouting::name() const {
  return metric_ == Metric::kHops ? "sp-hops" : "sp-invcap";
}

std::string ShortestPathRouting::cache_identity() const {
  // Deterministic point-mass distribution; the metric is the only
  // parameter (ties follow dijkstra()'s fixed rule: the first strict
  // improvement in (distance, arrival edge, vertex) pop order wins).
  return "sp;metric=" + std::string(metric_ == Metric::kHops ? "hops"
                                                             : "invcap");
}

}  // namespace sor
