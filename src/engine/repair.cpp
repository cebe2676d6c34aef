#include "engine/repair.hpp"

#include <algorithm>
#include <queue>

#include "util/check.hpp"

namespace sor::engine {

PathRepairer::PathRepairer(const Graph& g, const PathSystem& system,
                           RepairOptions options)
    : graph_(&g),
      system_(&system),
      options_(options),
      activation_(system),
      alive_(g.num_edges(), 1),
      edge_users_(g.num_edges()) {
  for (PathId id = 0; id < activation_.size(); ++id) index_users(id);
}

void PathRepairer::index_users(PathId id) {
  for (EdgeId e : activation_.path(id).edges) {
    auto& users = edge_users_[e];
    if (users.empty() || users.back() != id) users.push_back(id);
  }
}

bool PathRepairer::survives(PathId id) const {
  return std::ranges::all_of(activation_.path(id).edges,
                             [&](EdgeId e) { return alive_[e] != 0; });
}

void PathRepairer::fail_edge(EdgeId e, RepairReport& report) {
  SOR_CHECK(e < alive_.size());
  if (!alive_[e]) return;
  alive_[e] = 0;
  ++down_;
  for (const PathId id : edge_users_[e]) {
    if (activation_.is_active(id)) {
      activation_.set_active(id, false);
      ++report.deactivated;
    }
  }
}

Path PathRepairer::surviving_shortest_path(Vertex s, Vertex t) const {
  // BFS over alive edges with deterministic tie-breaking by edge id
  // (neighbors() is in insertion order).
  const Graph& g = *graph_;
  std::vector<EdgeId> parent(g.num_vertices(), kInvalidEdge);
  std::vector<char> seen(g.num_vertices(), 0);
  std::queue<Vertex> queue;
  queue.push(s);
  seen[s] = 1;
  while (!queue.empty() && !seen[t]) {
    const Vertex v = queue.front();
    queue.pop();
    for (const HalfEdge& half : g.neighbors(v)) {
      if (!alive_[half.id] || seen[half.to]) continue;
      seen[half.to] = 1;
      parent[half.to] = half.id;
      queue.push(half.to);
    }
  }
  if (!seen[t]) return Path{kInvalidVertex, kInvalidVertex, {}};
  Path path;
  path.src = s;
  path.dst = t;
  Vertex v = t;
  while (v != s) {
    const EdgeId e = parent[v];
    path.edges.push_back(e);
    v = g.other_endpoint(e, v);
  }
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

RepairReport PathRepairer::apply_epoch(std::span<const Event> events,
                                       std::span<const VertexPair> support) {
  RepairReport report;

  // Phase 1: topology events. Recoveries only flip the edge state here;
  // re-installing paths over the recovered link is optional work handled
  // by the budgeted phase 3.
  for (const Event& event : events) {
    switch (event.kind) {
      case EventKind::kLinkFailure:
        fail_edge(event.edge, report);
        break;
      case EventKind::kLinkRecovery:
        SOR_CHECK(event.edge < alive_.size());
        if (!alive_[event.edge]) {
          alive_[event.edge] = 1;
          --down_;
        }
        break;
      case EventKind::kDemandDrift:
        break;
    }
  }

  std::size_t budget = options_.churn_budget;

  // Phase 2: coverage. A support pair with zero active candidates gets a
  // surviving-graph shortest path. Mandatory — installed even with the
  // budget exhausted (the overdraw still counts against it).
  for (const VertexPair& pair : support) {
    if (activation_.num_active(pair.a, pair.b) > 0) continue;
    // Prefer re-arming an existing extra whose edges all survived over
    // installing brand-new forwarding state.
    const std::span<const PathId> extras = activation_.extras(pair.a, pair.b);
    const auto rearm = std::find_if(extras.begin(), extras.end(),
                                    [&](PathId id) { return survives(id); });
    if (rearm != extras.end()) {
      activation_.set_active(*rearm, true);
      ++report.reactivated;
    } else {
      const Path fallback = surviving_shortest_path(pair.a, pair.b);
      if (fallback.src == kInvalidVertex) continue;  // disconnected pair
      index_users(activation_.add_extra(fallback));
      ++report.fallbacks_installed;
    }
    budget = budget > 0 ? budget - 1 : 0;
  }

  // Phase 3: budgeted reactivation of candidates whose edges are all
  // alive again: base candidates in sorted pair order, then extras in
  // install order.
  const auto reactivate = [&](PathId id) {
    if (activation_.is_active(id) || !survives(id)) return;
    if (budget == 0) {
      ++report.deferred;
      return;
    }
    activation_.set_active(id, true);
    --budget;
    ++report.reactivated;
  };
  for (std::size_t i = 0; i < system_->num_pairs(); ++i) {
    for (const PathId id : system_->ids_at(i)) reactivate(id);
  }
  for (auto id = static_cast<PathId>(system_->total_paths());
       id < activation_.size(); ++id) {
    reactivate(id);
  }

  return report;
}

}  // namespace sor::engine
