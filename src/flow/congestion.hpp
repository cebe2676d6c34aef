#pragma once

// Edge-load bookkeeping and the congestion objective.
//
// Throughout the library, "congestion" of an edge is load(e) / capacity(e);
// on unit-capacity graphs this coincides with the paper's packet count.
// The congestion of a routing is the maximum edge congestion.

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace sor {

/// A commodity: `amount` units of demand from src to dst.
struct Commodity {
  Vertex src;
  Vertex dst;
  double amount;
};

/// Per-edge accumulated load, indexed by EdgeId.
using EdgeLoad = std::vector<double>;

inline EdgeLoad zero_load(const Graph& g) {
  return EdgeLoad(g.num_edges(), 0.0);
}

/// Adds `weight` units of flow along every edge of `path`.
void add_path_load(PathView path, double weight, EdgeLoad& load);

/// max_e load(e) / capacity(e); 0 for an empty graph load.
double max_congestion(const Graph& g, const EdgeLoad& load);

/// load(e) / capacity(e).
double edge_congestion(const Graph& g, EdgeId e, const EdgeLoad& load);

/// Total load·(1/capacity) summed — the average-congestion numerator used
/// by a few sanity bounds.
double total_congestion(const Graph& g, const EdgeLoad& load);

}  // namespace sor
