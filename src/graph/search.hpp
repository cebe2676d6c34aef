#pragma once

// Shortest-path primitives: BFS (hop metric) and Dijkstra (edge lengths).
//
// Dijkstra has one implementation, DijkstraSearch, which keeps its buffers
// from run to run; dijkstra() and shortest_path() are one-shot wrappers.
// Its tie rule makes every tree deterministic across runs and platforms:
// the heap pops entries in (distance, arrival edge id, vertex) order, and
// a label changes only on a strict improvement, so a vertex's parent edge
// is the first relaxation, in pop order, that reaches its final distance —
// not, in general, the lowest-id edge among equally short routes. A run
// stopped when its target settles has popped exactly what a full run pops
// up to that point, so it gives the same path and distance to the target.

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace sor {

inline constexpr std::uint32_t kUnreachableHops =
    std::numeric_limits<std::uint32_t>::max();
inline constexpr double kUnreachableDist =
    std::numeric_limits<double>::infinity();

/// Shortest-path tree rooted at `source`.
struct SpTree {
  Vertex source = kInvalidVertex;
  /// Hop count along the tree; kUnreachableHops if unreachable.
  std::vector<std::uint32_t> hops;
  /// Weighted distance — filled by dijkstra(); kUnreachableDist if
  /// unreachable. bfs() fills it with the hop count as a double.
  std::vector<double> dist;
  /// Edge taken into each vertex (kInvalidEdge at the source/unreachable).
  std::vector<EdgeId> parent_edge;

  /// Extracts the tree path source→t. t must be reachable.
  Path extract_path(const Graph& g, Vertex t) const;
};

/// Dijkstra over one graph, which must outlive it, one source per run,
/// reusing its buffers: a run stamp marks which labels belong to the
/// current run, so a run touches only the vertices it reaches and
/// allocates nothing once the buffers have grown. Lengths must be
/// nonnegative; an infinite length disables the edge.
class DijkstraSearch {
 public:
  /// The label that orders heap entries of equal distance, before the
  /// vertex: the edge the entry arrived by, or the vertex alone (Yen's
  /// spur searches in KSP, whose candidate lists depend on it).
  enum class Ties { kArrivalEdge, kVertex };

  explicit DijkstraSearch(const Graph& g, Ties ties = Ties::kArrivalEdge);

  /// Settles vertices from `source` under `lengths` (one per edge) and
  /// stops as soon as `target` settles; kInvalidVertex runs to the end.
  void run(Vertex source, std::span<const double> lengths,
           Vertex target = kInvalidVertex);

  /// True iff `v` settled in the last run.
  bool settled(Vertex v) const { return settled_[v] == run_; }
  /// Distance of a settled vertex; kUnreachableDist for any other.
  double dist(Vertex v) const {
    return settled(v) ? label_[v].dist : kUnreachableDist;
  }
  /// Edge into a settled vertex; kInvalidEdge at the source and for any
  /// vertex that did not settle.
  EdgeId parent_edge(Vertex v) const {
    return settled(v) ? label_[v].parent : kInvalidEdge;
  }
  /// The vertices the last run settled, in settle order.
  std::span<const Vertex> settle_order() const { return order_; }

  /// The tree path source→t; t must have settled. The view points into
  /// this search's own buffer: the next run() or path_to() overwrites it.
  PathView path_to(Vertex t);

 private:
  // Popped smallest (dist, key) first; key = tie label << 32 | vertex, so
  // entries pop in (distance, tie label, vertex) order.
  struct Entry {
    double dist;
    std::uint64_t key;
  };
  // A vertex's tentative distance and parent edge, valid when stamp == run_.
  struct Label {
    double dist = kUnreachableDist;
    EdgeId parent = kInvalidEdge;
    std::uint32_t stamp = 0;
  };

  const Graph* graph_;
  Ties ties_;
  Vertex source_ = kInvalidVertex;
  std::uint32_t run_ = 1;  // the stamps start at 0: nothing is current
  std::vector<Label> label_;
  std::vector<std::uint32_t> settled_;  // == run_: settled this run
  std::vector<Entry> heap_;
  std::vector<Vertex> order_;
  std::vector<EdgeId> path_;
};

/// Breadth-first search from `source` over unit-length edges.
SpTree bfs(const Graph& g, Vertex source);

/// Dijkstra from `source` with nonnegative per-edge lengths
/// (edge_lengths.size() == num_edges()): one full DijkstraSearch run.
SpTree dijkstra(const Graph& g, Vertex source,
                std::span<const double> edge_lengths);

/// Convenience: a shortest s→t path by hops (BFS).
Path shortest_path_hops(const Graph& g, Vertex s, Vertex t);

/// Convenience: a shortest s→t path under `edge_lengths` (the search
/// stops when t settles; the path is the one dijkstra()'s tree holds).
Path shortest_path(const Graph& g, Vertex s, Vertex t,
                   std::span<const double> edge_lengths);

/// Vertices within `radius` hops of `center` (including the center).
std::vector<Vertex> hop_ball(const Graph& g, Vertex center,
                             std::uint32_t radius);

/// Maximum over vertices of eccentricity in hops. O(n·m); for small graphs.
std::uint32_t hop_diameter(const Graph& g);

}  // namespace sor
