#include "oblivious/ksp.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "graph/search.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace sor {

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

  // Spur searches pop equal distances in vertex order, and see a banned
  // edge, or any edge into a banned vertex, at infinite length.
  DijkstraSearch spur_search(g, DijkstraSearch::Ties::kVertex);
  std::vector<double> spur_lengths;
  constexpr double kBanned = std::numeric_limits<double>::infinity();

  while (result.size() < k) {
    const Path& last = result.back();
    const std::vector<Vertex> last_verts = path_vertices(g, last);

    // Spur from every prefix of the previous path.
    for (std::size_t i = 0; i < last.edges.size(); ++i) {
      const Vertex spur = last_verts[i];

      spur_lengths.assign(edge_lengths.begin(), edge_lengths.end());

      // Ban edges that would reproduce an already-found path sharing this
      // root prefix.
      for (const Path& found : result) {
        if (found.edges.size() > i &&
            std::equal(found.edges.begin(), found.edges.begin() + i,
                       last.edges.begin())) {
          spur_lengths[found.edges[i]] = kBanned;
        }
      }
      for (const Path& found : candidates) {
        if (found.edges.size() > i &&
            std::equal(found.edges.begin(), found.edges.begin() + i,
                       last.edges.begin())) {
          spur_lengths[found.edges[i]] = kBanned;
        }
      }
      // Ban root-path vertices (loopless requirement).
      for (std::size_t j = 0; j < i; ++j) {
        for (const HalfEdge& h : g.neighbors(last_verts[j])) {
          spur_lengths[h.id] = kBanned;
        }
      }

      spur_search.run(spur, spur_lengths, t);
      if (!spur_search.settled(t)) continue;
      const PathView spur_path = spur_search.path_to(t);

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
