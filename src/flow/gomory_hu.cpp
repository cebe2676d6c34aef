#include "flow/gomory_hu.hpp"

#include <algorithm>
#include <limits>

#include "flow/maxflow.hpp"
#include "util/check.hpp"

namespace sor {

GomoryHuTree::GomoryHuTree(const Graph& g) {
  SOR_CHECK_MSG(g.is_connected(), "Gomory–Hu requires a connected graph");
  fingerprint_ = fingerprint_graph(g);
  const std::size_t n = g.num_vertices();
  parent_.assign(n, 0);
  parent_[0] = kInvalidVertex;
  cut_.assign(n, 0.0);

  // Gusfield's algorithm: for each vertex v > 0, compute max flow to its
  // current parent; re-hang same-side siblings below v.
  for (Vertex v = 1; v < n; ++v) {
    const Vertex p = parent_[v];
    const MaxFlowResult flow = max_flow(g, v, p);
    cut_[v] = flow.value;
    // Re-hang every sibling that landed on v's side of the cut.
    for (Vertex w = 0; w < n; ++w) {
      if (w != v && parent_[w] == p && flow.source_side[w]) {
        parent_[w] = v;
      }
    }
    // Gusfield's swap: if p's own parent is on v's side, v takes over the
    // tree edge p—parent(p).
    if (parent_[p] != kInvalidVertex && flow.source_side[parent_[p]]) {
      parent_[v] = parent_[p];
      parent_[p] = v;
      cut_[v] = cut_[p];
      cut_[p] = flow.value;
    }
  }

  compute_depths();
}

void GomoryHuTree::compute_depths() {
  const std::size_t n = parent_.size();
  // Depths for tree-path queries.
  depth_.assign(n, 0);
  // parent indices do not form a topological order, so iterate to fixpoint
  // (n is small; O(n²) worst case is fine here).
  bool changed = true;
  std::vector<bool> settled(n, false);
  settled[0] = true;
  while (changed) {
    changed = false;
    for (Vertex v = 1; v < n; ++v) {
      if (!settled[v] && settled[parent_[v]]) {
        depth_[v] = depth_[parent_[v]] + 1;
        settled[v] = true;
        changed = true;
      }
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    SOR_CHECK_MSG(settled[v], "Gomory–Hu tree is not connected");
  }
}

double GomoryHuTree::min_cut(Vertex s, Vertex t) const {
  SOR_CHECK(s < parent_.size() && t < parent_.size());
  SOR_CHECK_MSG(s != t, "min cut of a vertex with itself");
  double best = std::numeric_limits<double>::infinity();
  Vertex a = s;
  Vertex b = t;
  while (a != b) {
    if (depth_[a] >= depth_[b]) {
      best = std::min(best, cut_[a]);
      a = parent_[a];
    } else {
      best = std::min(best, cut_[b]);
      b = parent_[b];
    }
  }
  return best;
}

}  // namespace sor
