#include "tree/frt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "graph/search.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace sor {

HstTree::HstTree(std::vector<HstNode> nodes,
                 std::vector<HstNodeId> leaf_of_vertex)
    : nodes_(std::move(nodes)), leaf_of_vertex_(std::move(leaf_of_vertex)) {
  SOR_CHECK(!nodes_.empty());
  depth_.assign(nodes_.size(), 0);
  for (HstNodeId id = 1; id < nodes_.size(); ++id) {
    SOR_CHECK(nodes_[id].parent < id);  // parents precede children
    depth_[id] = depth_[nodes_[id].parent] + 1;
  }
}

HstNodeId HstTree::lca(HstNodeId a, HstNodeId b) const {
  while (a != b) {
    if (depth_[a] >= depth_[b]) {
      a = nodes_[a].parent;
    } else {
      b = nodes_[b].parent;
    }
  }
  return a;
}

Path HstTree::route(const Graph& g, Vertex s, Vertex t) const {
  SOR_CHECK(s < leaf_of_vertex_.size() && t < leaf_of_vertex_.size());
  if (s == t) return Path{s, t, {}};
  const HstNodeId ls = leaf_of(s);
  const HstNodeId lt = leaf_of(t);
  const HstNodeId meet = lca(ls, lt);

  // Walk upward from s concatenating mapped segments, then downward to t.
  Path walk{s, s, {}};
  for (HstNodeId at = ls; at != meet; at = nodes_[at].parent) {
    walk = concatenate(walk, nodes_[at].up_path);
  }
  // Collect the downward chain t→meet, then append reversed segments.
  std::vector<HstNodeId> down;
  for (HstNodeId at = lt; at != meet; at = nodes_[at].parent) {
    down.push_back(at);
  }
  for (auto it = down.rbegin(); it != down.rend(); ++it) {
    const Path& up = nodes_[*it].up_path;
    Path reversed;
    reversed.src = up.dst;
    reversed.dst = up.src;
    reversed.edges.assign(up.edges.rbegin(), up.edges.rend());
    walk = concatenate(walk, reversed);
  }
  SOR_DCHECK(walk.dst == t);
  return simplify_walk(g, walk);
}

std::size_t HstTree::tree_hops(Vertex s, Vertex t) const {
  const HstNodeId ls = leaf_of(s);
  const HstNodeId lt = leaf_of(t);
  const HstNodeId meet = lca(ls, lt);
  return (depth_[ls] - depth_[meet]) + (depth_[lt] - depth_[meet]);
}

namespace {

/// All-pairs shortest distances, one Dijkstra per vertex in parallel
/// (the dominant cost of an FRT build).
std::vector<std::vector<double>> all_pairs_distances(
    const Graph& g, std::span<const double> lengths) {
  std::vector<std::vector<double>> dist(g.num_vertices());
  parallel_for(g.num_vertices(), [&](std::size_t v) {
    dist[v] = dijkstra(g, static_cast<Vertex>(v), lengths).dist;
  });
  return dist;
}

}  // namespace

HstTree build_frt_tree(const Graph& g, std::span<const double> edge_lengths,
                       Rng& rng) {
  SOR_SPAN("tree/frt_build");
  SOR_CHECK(edge_lengths.size() == g.num_edges());
  for (double len : edge_lengths) SOR_CHECK_MSG(len > 0, "FRT needs positive lengths");
  const std::size_t n = g.num_vertices();

  const auto dist = all_pairs_distances(g, edge_lengths);

  // Normalize scales: the smallest positive pairwise distance becomes 1.
  double d_min = std::numeric_limits<double>::infinity();
  double d_max = 0;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      if (u == v) continue;
      SOR_CHECK_MSG(std::isfinite(dist[u][v]), "FRT requires connectivity");
      d_min = std::min(d_min, dist[u][v]);
      d_max = std::max(d_max, dist[u][v]);
    }
  }
  if (n == 1) d_min = d_max = 1;

  const double beta = rng.next_double(1.0, 2.0);
  const std::vector<std::uint32_t> pi = rng.permutation(n);

  // Level i covers radius beta · 2^(i-1) · d_min; level 0 gives singletons
  // (radius beta/2 · d_min < d_min). Top level: one cluster.
  std::int32_t top = 0;
  while (beta * std::ldexp(1.0, top - 1) * d_min < d_max) ++top;

  // σ_i(v): first vertex in π-order within the level-i radius of v.
  // levels 0..top (inclusive).
  std::vector<std::vector<Vertex>> sigma(
      static_cast<std::size_t>(top) + 1, std::vector<Vertex>(n, kInvalidVertex));
  for (std::int32_t i = 0; i <= top; ++i) {
    const double radius = beta * std::ldexp(1.0, i - 1) * d_min;
    for (Vertex v = 0; v < n; ++v) {
      for (std::uint32_t rank = 0; rank < n; ++rank) {
        const Vertex u = pi[rank];
        if (dist[u][v] <= radius) {
          sigma[static_cast<std::size_t>(i)][v] = u;
          break;
        }
      }
      SOR_DCHECK(sigma[static_cast<std::size_t>(i)][v] != kInvalidVertex);
    }
  }

  // Build the laminar tree top-down. Root is the whole vertex set at
  // level `top`; each cluster at level i splits by σ_{i-1}.
  std::vector<HstNode> nodes;
  std::vector<HstNodeId> leaf_of(n, kInvalidHstNode);

  {
    HstNode root;
    root.center = sigma[static_cast<std::size_t>(top)][0];
    root.level = top;
    root.parent = kInvalidHstNode;
    root.members.resize(n);
    for (Vertex v = 0; v < n; ++v) root.members[v] = v;
    nodes.push_back(std::move(root));
  }

  // Cluster cut capacities need membership tests; reuse one stamp array.
  std::vector<std::uint32_t> stamp(n, 0);
  std::uint32_t stamp_token = 0;
  auto cut_capacity = [&](const std::vector<Vertex>& members) {
    ++stamp_token;
    for (Vertex v : members) stamp[v] = stamp_token;
    double cut = 0;
    for (Vertex v : members) {
      for (const HalfEdge& h : g.neighbors(v)) {
        if (stamp[h.to] != stamp_token) cut += g.edge(h.id).capacity;
      }
    }
    return cut;
  };
  nodes[0].cut_capacity = cut_capacity(nodes[0].members);

  // Shortest-path trees per distinct center, built lazily for the
  // tree-edge → graph-path mapping.
  std::unordered_map<Vertex, SpTree> sp_cache;
  auto sp_from = [&](Vertex center) -> const SpTree& {
    auto it = sp_cache.find(center);
    if (it == sp_cache.end()) {
      it = sp_cache.emplace(center, dijkstra(g, center, edge_lengths)).first;
    }
    return it->second;
  };

  std::vector<std::uint32_t> rank_of(n);
  for (std::uint32_t r = 0; r < n; ++r) rank_of[pi[r]] = r;

  for (HstNodeId id = 0; id < nodes.size(); ++id) {
    const std::int32_t level = nodes[id].level;
    if (nodes[id].members.size() == 1) {
      continue;  // leaf; re-anchored in the fix-up pass below
    }
    SOR_CHECK_MSG(level > 0, "level-0 cluster with several members");
    // Partition members by σ_{level-1}, keeping deterministic π-order of
    // the child centers.
    const auto& assign = sigma[static_cast<std::size_t>(level - 1)];
    std::map<std::uint32_t, std::vector<Vertex>> groups;  // π-rank → members
    for (Vertex v : nodes[id].members) {
      groups[rank_of[assign[v]]].push_back(v);
    }
    // NOTE: copying members out first — push_back below may reallocate.
    const Vertex parent_center = nodes[id].center;
    for (auto& [rank, members] : groups) {
      HstNode child;
      child.center = pi[rank];
      child.level = level - 1;
      child.parent = id;
      child.members = std::move(members);
      child.cut_capacity = cut_capacity(child.members);
      if (child.center != parent_center) {
        // Mapped segment: child center → parent center.
        const SpTree& tree = sp_from(child.center);
        child.up_path = tree.extract_path(g, parent_center);
      } else {
        child.up_path = Path{child.center, parent_center, {}};
      }
      const auto child_id = static_cast<HstNodeId>(nodes.size());
      nodes[id].children.push_back(child_id);
      nodes.push_back(std::move(child));
    }
  }

  // Fix-up pass: singleton clusters become leaves. A leaf's representative
  // must be its actual vertex (routing starts there), so re-anchor the
  // center and recompute the mapped segment to the parent center.
  for (HstNodeId id = 0; id < nodes.size(); ++id) {
    HstNode& node = nodes[id];
    if (node.members.size() != 1) continue;
    node.center = node.members[0];
    leaf_of[node.members[0]] = id;
    if (node.parent == kInvalidHstNode) continue;  // n == 1 corner case
    const Vertex parent_center = nodes[node.parent].center;
    if (node.center != parent_center) {
      node.up_path = sp_from(node.center).extract_path(g, parent_center);
    } else {
      node.up_path = Path{node.center, parent_center, {}};
    }
  }

  for (Vertex v = 0; v < n; ++v) {
    SOR_CHECK_MSG(leaf_of[v] != kInvalidHstNode,
                  "vertex " << v << " missing from FRT leaves");
  }
  return HstTree(std::move(nodes), std::move(leaf_of));
}

}  // namespace sor
