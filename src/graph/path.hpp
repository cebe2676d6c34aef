#pragma once

// Paths through a Graph.
//
// A Path records its endpoints and the sequence of edge ids traversed from
// src to dst. Edge ids (rather than vertex sequences) are authoritative
// because the graph may contain parallel edges and congestion is charged
// per edge. An empty edge sequence with src == dst is the trivial path.
//
// Collections of candidate paths live in a PathTable: every path's edges
// back to back in one array, addressed by a dense PathId. Readers see a
// path as a non-owning PathView, which a Path also converts to.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace sor {

/// A path's endpoints and edges, viewing storage it does not own (a Path
/// or a PathTable row). Valid as long as that storage is unchanged.
struct PathView {
  Vertex src = kInvalidVertex;
  Vertex dst = kInvalidVertex;
  std::span<const EdgeId> edges;

  std::size_t hops() const { return edges.size(); }

  /// Equal endpoints and edge sequences.
  friend bool operator==(PathView a, PathView b) {
    return a.src == b.src && a.dst == b.dst &&
           std::ranges::equal(a.edges, b.edges);
  }
};

struct Path {
  Vertex src = kInvalidVertex;
  Vertex dst = kInvalidVertex;
  std::vector<EdgeId> edges;

  std::size_t hops() const { return edges.size(); }
  operator PathView() const { return {src, dst, edges}; }

  friend bool operator==(const Path& a, const Path& b) = default;
};

/// An owning copy of `view`.
Path to_path(PathView view);

/// Dense index of a path in a PathTable.
using PathId = std::uint32_t;
/// No path's id.
inline constexpr PathId kInvalidPathId = ~PathId{0};

/// Append-only CSR path storage: one edge array, an offset array, and
/// each path's endpoints, as appended. Appending may reallocate, so it
/// invalidates every PathView and edge span taken from the table.
class PathTable {
 public:
  /// Copies `path` in as the next id. `path` must not view this table.
  PathId append(PathView path);

  std::size_t size() const { return ends_.size(); }

  PathView operator[](PathId id) const {
    return {ends_[id].first, ends_[id].second, edges(id)};
  }
  std::span<const EdgeId> edges(PathId id) const {
    return std::span<const EdgeId>(edges_).subspan(
        offsets_[id], offsets_[id + 1] - offsets_[id]);
  }

 private:
  std::vector<EdgeId> edges_;
  std::vector<std::size_t> offsets_{0};  // size() + 1 entries
  std::vector<std::pair<Vertex, Vertex>> ends_;
};

/// True iff `p.edges` is a consecutive src→dst walk in `g` visiting no
/// vertex twice (i.e. a simple path).
bool is_simple_path(const Graph& g, PathView p);

/// True iff `p.edges` is a consecutive src→dst walk (vertices may repeat).
bool is_walk(const Graph& g, PathView p);

/// The vertex sequence visited (src first, dst last; hops()+1 entries).
/// Requires a valid walk.
std::vector<Vertex> path_vertices(const Graph& g, PathView p);

/// Builds a path from a vertex sequence, choosing for each consecutive pair
/// the first edge between them (by id). Throws if some pair is not adjacent.
Path path_from_vertices(const Graph& g, std::span<const Vertex> vertices);

/// Concatenates two walks (a.dst must equal b.src).
Path concatenate(const Path& a, const Path& b);

/// Removes loops from a walk, producing a simple path with the same
/// endpoints. Deterministic: keeps the first occurrence of each vertex and
/// splices out the cycle whenever a vertex repeats. Never lengthens the
/// walk, so congestion/dilation of a routing can only improve.
Path simplify_walk(const Graph& g, const Path& p);

/// Sum of 1/capacity over edges — a convenient canonical length.
double path_cost(const Graph& g, const Path& p,
                 std::span<const double> edge_lengths);

/// FNV-1a hash of (src, dst, edges); for dedup in path systems.
struct PathHash {
  std::size_t operator()(const Path& p) const;
};

/// Deterministic total order on paths: (src, dst), then the edge sequence
/// lexicographically. The tie-break used everywhere map-keyed path state
/// must be emitted in a stable order (quality churn rows, route-snapshot
/// serialization).
inline bool path_lexicographic_less(PathView a, PathView b) {
  if (std::tie(a.src, a.dst) != std::tie(b.src, b.dst)) {
    return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
  }
  return std::ranges::lexicographical_compare(a.edges, b.edges);
}

}  // namespace sor
