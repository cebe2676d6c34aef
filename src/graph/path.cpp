#include "graph/path.hpp"

#include <algorithm>
#include <unordered_map>

namespace sor {

Path to_path(PathView view) {
  return Path{view.src, view.dst, {view.edges.begin(), view.edges.end()}};
}

PathId PathTable::append(PathView path) {
  edges_.insert(edges_.end(), path.edges.begin(), path.edges.end());
  offsets_.push_back(edges_.size());
  ends_.emplace_back(path.src, path.dst);
  return static_cast<PathId>(ends_.size() - 1);
}

bool is_walk(const Graph& g, PathView p) {
  if (p.src >= g.num_vertices() || p.dst >= g.num_vertices()) return false;
  Vertex at = p.src;
  for (EdgeId e : p.edges) {
    if (e >= g.num_edges()) return false;
    const Edge& ed = g.edge(e);
    if (ed.u != at && ed.v != at) return false;
    at = g.other_endpoint(e, at);
  }
  return at == p.dst;
}

bool is_simple_path(const Graph& g, PathView p) {
  if (!is_walk(g, p)) return false;
  std::vector<Vertex> verts = path_vertices(g, p);
  std::sort(verts.begin(), verts.end());
  return std::adjacent_find(verts.begin(), verts.end()) == verts.end();
}

std::vector<Vertex> path_vertices(const Graph& g, PathView p) {
  SOR_CHECK_MSG(is_walk(g, p), "path_vertices requires a valid walk");
  std::vector<Vertex> verts;
  verts.reserve(p.edges.size() + 1);
  Vertex at = p.src;
  verts.push_back(at);
  for (EdgeId e : p.edges) {
    at = g.other_endpoint(e, at);
    verts.push_back(at);
  }
  return verts;
}

Path path_from_vertices(const Graph& g, std::span<const Vertex> vertices) {
  SOR_CHECK(!vertices.empty());
  Path p;
  p.src = vertices.front();
  p.dst = vertices.back();
  p.edges.reserve(vertices.size() - 1);
  for (std::size_t i = 0; i + 1 < vertices.size(); ++i) {
    const Vertex a = vertices[i];
    const Vertex b = vertices[i + 1];
    EdgeId found = kInvalidEdge;
    for (const HalfEdge& h : g.neighbors(a)) {
      if (h.to == b && (found == kInvalidEdge || h.id < found)) found = h.id;
    }
    SOR_CHECK_MSG(found != kInvalidEdge,
                  "vertices " << a << " and " << b << " are not adjacent");
    p.edges.push_back(found);
  }
  return p;
}

Path concatenate(const Path& a, const Path& b) {
  SOR_CHECK_MSG(a.dst == b.src, "walks are not composable");
  Path out;
  out.src = a.src;
  out.dst = b.dst;
  out.edges.reserve(a.edges.size() + b.edges.size());
  out.edges.insert(out.edges.end(), a.edges.begin(), a.edges.end());
  out.edges.insert(out.edges.end(), b.edges.begin(), b.edges.end());
  return out;
}

Path simplify_walk(const Graph& g, const Path& p) {
  SOR_CHECK_MSG(is_walk(g, p), "simplify_walk requires a valid walk");
  // Stack of (vertex, edge that led to it); on revisiting a vertex, pop the
  // intervening cycle.
  std::vector<Vertex> verts{p.src};
  std::vector<EdgeId> kept;
  std::unordered_map<Vertex, std::size_t> position{{p.src, 0}};

  Vertex at = p.src;
  for (EdgeId e : p.edges) {
    at = g.other_endpoint(e, at);
    auto it = position.find(at);
    if (it != position.end()) {
      // Splice out the loop back to the earlier occurrence of `at`.
      const std::size_t keep = it->second;
      while (verts.size() > keep + 1) {
        position.erase(verts.back());
        verts.pop_back();
        kept.pop_back();
      }
    } else {
      verts.push_back(at);
      kept.push_back(e);
      position.emplace(at, verts.size() - 1);
    }
  }

  Path out;
  out.src = p.src;
  out.dst = p.dst;
  out.edges = std::move(kept);
  SOR_DCHECK(is_simple_path(g, out));
  return out;
}

double path_cost(const Graph& g, const Path& p,
                 std::span<const double> edge_lengths) {
  SOR_CHECK(edge_lengths.size() == g.num_edges());
  double total = 0;
  for (EdgeId e : p.edges) total += edge_lengths[e];
  return total;
}

std::size_t PathHash::operator()(const Path& p) const {
  std::size_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(p.src);
  mix(p.dst);
  for (EdgeId e : p.edges) mix(e);
  return h;
}

}  // namespace sor
