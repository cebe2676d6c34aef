#include "flow/congestion.hpp"

#include <algorithm>

namespace sor {

void add_path_load(PathView path, double weight, EdgeLoad& load) {
  for (EdgeId e : path.edges) {
    SOR_DCHECK(e < load.size());
    load[e] += weight;
  }
}

double max_congestion(const Graph& g, const EdgeLoad& load) {
  SOR_CHECK(load.size() == g.num_edges());
  double worst = 0;
  for (EdgeId e = 0; e < load.size(); ++e) {
    worst = std::max(worst, load[e] / g.edge(e).capacity);
  }
  return worst;
}

double edge_congestion(const Graph& g, EdgeId e, const EdgeLoad& load) {
  SOR_DCHECK(e < load.size());
  return load[e] / g.edge(e).capacity;
}

double total_congestion(const Graph& g, const EdgeLoad& load) {
  SOR_CHECK(load.size() == g.num_edges());
  double total = 0;
  for (EdgeId e = 0; e < load.size(); ++e) {
    total += load[e] / g.edge(e).capacity;
  }
  return total;
}

}  // namespace sor
