#include "engine/repair.hpp"

#include <algorithm>
#include <queue>

#include "telemetry/telemetry.hpp"
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
  for (const VertexPair& pair : system.pairs()) {
    const auto paths = system.canonical_paths(pair.a, pair.b);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      for (EdgeId e : paths[i].edges) {
        auto& users = edge_users_[e];
        if (users.empty() || users.back() != std::make_pair(pair, i)) {
          users.emplace_back(pair, i);
        }
      }
    }
  }
}

void PathRepairer::fail_edge(EdgeId e, RepairReport& report) {
  SOR_CHECK(e < alive_.size());
  if (!alive_[e]) return;
  alive_[e] = 0;
  ++down_;
  for (const auto& [pair, index] : edge_users_[e]) {
    if (activation_.is_active(pair.a, pair.b, index)) {
      activation_.set_active(pair.a, pair.b, index, false);
      ++report.deactivated;
    }
  }
  for (const auto& [pair, index] : extras_) {
    if (!activation_.is_extra_active(pair.a, pair.b, index)) continue;
    const Path& p = activation_.extra_path(pair.a, pair.b, index);
    if (std::find(p.edges.begin(), p.edges.end(), e) != p.edges.end()) {
      activation_.set_extra_active(pair.a, pair.b, index, false);
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
    bool covered = false;
    for (std::size_t i = 0; i < activation_.num_extras(pair.a, pair.b); ++i) {
      const Path& p = activation_.extra_path(pair.a, pair.b, i);
      if (std::all_of(p.edges.begin(), p.edges.end(),
                      [&](EdgeId e) { return alive_[e] != 0; })) {
        activation_.set_extra_active(pair.a, pair.b, i, true);
        ++report.reactivated;
        covered = true;
        break;
      }
    }
    if (!covered) {
      const Path fallback = surviving_shortest_path(pair.a, pair.b);
      if (fallback.src == kInvalidVertex) continue;  // disconnected pair
      const std::size_t index = activation_.add_extra(fallback);
      extras_.emplace_back(VertexPair::canonical(pair.a, pair.b), index);
      ++report.fallbacks_installed;
      SOR_COUNTER("engine/fallback_installs").add();
    }
    budget = budget > 0 ? budget - 1 : 0;
  }

  // Phase 3: budgeted reactivation of base candidates (and extras) whose
  // edges are all alive again.
  for (const VertexPair& pair : system_->pairs()) {
    const auto paths = system_->canonical_paths(pair.a, pair.b);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (activation_.is_active(pair.a, pair.b, i)) continue;
      if (!std::all_of(paths[i].edges.begin(), paths[i].edges.end(),
                       [&](EdgeId e) { return alive_[e] != 0; })) {
        continue;
      }
      if (budget == 0) {
        ++report.deferred;
        continue;
      }
      activation_.set_active(pair.a, pair.b, i, true);
      --budget;
      ++report.reactivated;
    }
  }
  for (const auto& [pair, index] : extras_) {
    if (activation_.is_extra_active(pair.a, pair.b, index)) continue;
    const Path& p = activation_.extra_path(pair.a, pair.b, index);
    if (!std::all_of(p.edges.begin(), p.edges.end(),
                     [&](EdgeId e) { return alive_[e] != 0; })) {
      continue;
    }
    if (budget == 0) {
      ++report.deferred;
      continue;
    }
    activation_.set_extra_active(pair.a, pair.b, index, true);
    --budget;
    ++report.reactivated;
  }

  return report;
}

}  // namespace sor::engine
