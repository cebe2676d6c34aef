#include "oblivious/ksp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

#include "graph/search.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace sor {

namespace {

/// Dijkstra that ignores banned edges and vertices; returns an s→t path
/// or an empty optional-equivalent (path with src == kInvalidVertex).
Path restricted_shortest_path(const Graph& g, Vertex s, Vertex t,
                              std::span<const double> lengths,
                              const std::vector<bool>& banned_edge,
                              const std::vector<bool>& banned_vertex) {
  std::vector<double> dist(g.num_vertices(),
                           std::numeric_limits<double>::infinity());
  std::vector<EdgeId> parent(g.num_vertices(), kInvalidEdge);
  using Entry = std::pair<double, Vertex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[s] = 0;
  heap.emplace(0.0, s);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    if (v == t) break;
    for (const HalfEdge& h : g.neighbors(v)) {
      if (banned_edge[h.id] || banned_vertex[h.to]) continue;
      const double nd = d + lengths[h.id];
      if (nd < dist[h.to]) {
        dist[h.to] = nd;
        parent[h.to] = h.id;
        heap.emplace(nd, h.to);
      }
    }
  }
  Path p;
  if (!std::isfinite(dist[t])) return p;  // src stays kInvalidVertex
  p.src = s;
  p.dst = t;
  Vertex at = t;
  while (at != s) {
    p.edges.push_back(parent[at]);
    at = g.other_endpoint(parent[at], at);
  }
  std::reverse(p.edges.begin(), p.edges.end());
  return p;
}

}  // namespace

std::vector<Path> k_shortest_paths(const Graph& g, Vertex s, Vertex t,
                                   std::size_t k,
                                   std::span<const double> edge_lengths) {
  SOR_CHECK(s != t);
  SOR_CHECK(k >= 1);
  SOR_CHECK(edge_lengths.size() == g.num_edges());

  std::vector<Path> result;
  result.push_back(shortest_path(g, s, t, edge_lengths));
  if (result.front().src == kInvalidVertex) return {};

  // Candidate pool ordered by (cost, edges) for determinism.
  auto cost_of = [&](const Path& p) {
    return path_cost(g, p, edge_lengths);
  };
  auto cmp = [&](const Path& a, const Path& b) {
    const double ca = cost_of(a);
    const double cb = cost_of(b);
    if (ca != cb) return ca < cb;
    return a.edges < b.edges;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

  std::vector<bool> banned_edge(g.num_edges(), false);
  std::vector<bool> banned_vertex(g.num_vertices(), false);

  while (result.size() < k) {
    const Path& last = result.back();
    const std::vector<Vertex> last_verts = path_vertices(g, last);

    // Spur from every prefix of the previous path.
    for (std::size_t i = 0; i < last.edges.size(); ++i) {
      const Vertex spur = last_verts[i];

      std::fill(banned_edge.begin(), banned_edge.end(), false);
      std::fill(banned_vertex.begin(), banned_vertex.end(), false);

      // Ban edges that would reproduce an already-found path sharing this
      // root prefix.
      for (const Path& found : result) {
        if (found.edges.size() > i &&
            std::equal(found.edges.begin(), found.edges.begin() + i,
                       last.edges.begin())) {
          banned_edge[found.edges[i]] = true;
        }
      }
      for (const Path& found : candidates) {
        if (found.edges.size() > i &&
            std::equal(found.edges.begin(), found.edges.begin() + i,
                       last.edges.begin())) {
          banned_edge[found.edges[i]] = true;
        }
      }
      // Ban root-path vertices (loopless requirement).
      for (std::size_t j = 0; j < i; ++j) banned_vertex[last_verts[j]] = true;

      const Path spur_path = restricted_shortest_path(
          g, spur, t, edge_lengths, banned_edge, banned_vertex);
      if (spur_path.src == kInvalidVertex) continue;

      Path total;
      total.src = s;
      total.dst = t;
      total.edges.assign(last.edges.begin(), last.edges.begin() + i);
      total.edges.insert(total.edges.end(), spur_path.edges.begin(),
                         spur_path.edges.end());
      candidates.insert(std::move(total));
    }

    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

KspRouting::KspRouting(const Graph& g, std::size_t k)
    : ObliviousRouting(g), k_(k) {
  SOR_CHECK(k >= 1);
  lengths_.resize(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    lengths_[e] = 1.0 / g.edge(e).capacity;
  }
}

const std::vector<Path>& KspRouting::candidates(Vertex s, Vertex t) const {
  const VertexPair key = VertexPair::canonical(s, t);
  std::lock_guard lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    SOR_SPAN("oblivious/ksp_yen");
    it = cache_
             .emplace(key,
                      k_shortest_paths(*graph_, key.a, key.b, k_, lengths_))
             .first;
  }
  return it->second;
}

Path KspRouting::sample_path(Vertex s, Vertex t, Rng& rng) const {
  SOR_CHECK(s != t);
  const std::vector<Path>& cands = candidates(s, t);
  SOR_CHECK(!cands.empty());
  Path p = cands[rng.next_u64(cands.size())];
  if (p.src != s) {
    // Cached canonical orientation; reverse.
    std::reverse(p.edges.begin(), p.edges.end());
    std::swap(p.src, p.dst);
  }
  return p;
}

std::string KspRouting::name() const {
  return "ksp" + std::to_string(k_);
}

std::string KspRouting::cache_identity() const {
  // Yen's algorithm on the inverse-capacity metric is deterministic; k is
  // the only free parameter.
  return "ksp;k=" + std::to_string(k_);
}

}  // namespace sor
