#include "graph/search.hpp"

#include <algorithm>
#include <deque>

namespace sor {

Path SpTree::extract_path(const Graph& g, Vertex t) const {
  SOR_CHECK(t < g.num_vertices());
  SOR_CHECK_MSG(parent_edge[t] != kInvalidEdge || t == source,
                "vertex " << t << " unreachable from " << source);
  Path p;
  p.src = source;
  p.dst = t;
  Vertex at = t;
  while (at != source) {
    const EdgeId e = parent_edge[at];
    p.edges.push_back(e);
    at = g.other_endpoint(e, at);
  }
  std::reverse(p.edges.begin(), p.edges.end());
  return p;
}

SpTree bfs(const Graph& g, Vertex source) {
  SOR_CHECK(source < g.num_vertices());
  SpTree tree;
  tree.source = source;
  tree.hops.assign(g.num_vertices(), kUnreachableHops);
  tree.dist.assign(g.num_vertices(), kUnreachableDist);
  tree.parent_edge.assign(g.num_vertices(), kInvalidEdge);

  std::deque<Vertex> queue{source};
  tree.hops[source] = 0;
  tree.dist[source] = 0;
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (const HalfEdge& h : g.neighbors(v)) {
      if (tree.hops[h.to] == kUnreachableHops) {
        tree.hops[h.to] = tree.hops[v] + 1;
        tree.dist[h.to] = tree.hops[h.to];
        tree.parent_edge[h.to] = h.id;
        queue.push_back(h.to);
      }
    }
  }
  return tree;
}

DijkstraSearch::DijkstraSearch(const Graph& g, Ties ties)
    : graph_(&g),
      ties_(ties),
      label_(g.num_vertices()),
      settled_(g.num_vertices(), 0) {
  order_.reserve(g.num_vertices());
  heap_.reserve(g.num_vertices());
}

void DijkstraSearch::run(Vertex source, std::span<const double> lengths,
                         Vertex target) {
  const Graph& g = *graph_;
  SOR_CHECK(source < g.num_vertices());
  SOR_CHECK(target == kInvalidVertex || target < g.num_vertices());
  SOR_CHECK(lengths.size() == g.num_edges());
  if (++run_ == 0) {  // the stamp wrapped: clear every stale label
    for (Label& label : label_) label.stamp = 0;
    std::fill(settled_.begin(), settled_.end(), 0);
    run_ = 1;
  }
  source_ = source;
  heap_.clear();
  order_.clear();
  label_[source] = {0.0, kInvalidEdge, run_};
  heap_.push_back({0.0, (std::uint64_t{kInvalidEdge} << 32) | source});

  const auto later = [](const Entry& a, const Entry& b) {
    return a.dist > b.dist || (a.dist == b.dist && a.key > b.key);
  };
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const double d = heap_.back().dist;
    const auto v = static_cast<Vertex>(heap_.back().key);
    heap_.pop_back();
    if (settled_[v] == run_) continue;
    settled_[v] = run_;
    order_.push_back(v);
    if (v == target) break;
    for (const HalfEdge& h : g.neighbors(v)) {
      const double len = lengths[h.id];
      SOR_DCHECK(len >= 0);
      const double nd = d + len;
      Label& label = label_[h.to];
      if (nd < (label.stamp == run_ ? label.dist : kUnreachableDist)) {
        label = {nd, h.id, run_};
        const std::uint64_t tie = ties_ == Ties::kVertex ? h.to : h.id;
        heap_.push_back({nd, (tie << 32) | h.to});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
}

PathView DijkstraSearch::path_to(Vertex t) {
  const Graph& g = *graph_;
  SOR_CHECK(t < g.num_vertices());
  SOR_CHECK_MSG(settled(t),
                "vertex " << t << " not reached from " << source_);
  path_.clear();
  for (Vertex at = t; at != source_;) {
    const EdgeId e = label_[at].parent;
    path_.push_back(e);
    at = g.other_endpoint(e, at);
  }
  std::reverse(path_.begin(), path_.end());
  return {source_, t, path_};
}

SpTree dijkstra(const Graph& g, Vertex source,
                std::span<const double> edge_lengths) {
  DijkstraSearch search(g);
  search.run(source, edge_lengths);

  SpTree tree;
  tree.source = source;
  tree.hops.assign(g.num_vertices(), kUnreachableHops);
  tree.dist.assign(g.num_vertices(), kUnreachableDist);
  tree.parent_edge.assign(g.num_vertices(), kInvalidEdge);
  // A parent settles before its child, so hops fill in settle order.
  for (const Vertex v : search.settle_order()) {
    const EdgeId via = search.parent_edge(v);
    tree.dist[v] = search.dist(v);
    tree.parent_edge[v] = via;
    tree.hops[v] =
        v == source ? 0 : tree.hops[g.other_endpoint(via, v)] + 1;
  }
  return tree;
}

Path shortest_path_hops(const Graph& g, Vertex s, Vertex t) {
  return bfs(g, s).extract_path(g, t);
}

Path shortest_path(const Graph& g, Vertex s, Vertex t,
                   std::span<const double> edge_lengths) {
  DijkstraSearch search(g);
  search.run(s, edge_lengths, t);
  return to_path(search.path_to(t));
}

std::vector<Vertex> hop_ball(const Graph& g, Vertex center,
                             std::uint32_t radius) {
  const SpTree tree = bfs(g, center);
  std::vector<Vertex> ball;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (tree.hops[v] != kUnreachableHops && tree.hops[v] <= radius) {
      ball.push_back(v);
    }
  }
  return ball;
}

std::uint32_t hop_diameter(const Graph& g) {
  std::uint32_t diameter = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const SpTree tree = bfs(g, v);
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      SOR_CHECK_MSG(tree.hops[u] != kUnreachableHops,
                    "hop_diameter requires a connected graph");
      diameter = std::max(diameter, tree.hops[u]);
    }
  }
  return diameter;
}

}  // namespace sor
