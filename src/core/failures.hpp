#pragma once

// Link-failure support for semi-oblivious routing.
//
// SMORE's robustness story: because the k candidate paths per pair are
// load-diverse, losing a link rarely strands a pair — the rate optimizer
// simply shifts traffic to surviving candidates, no new forwarding state
// needed. This module models that: mask failed edges out of a path
// system, rebuild the surviving subgraph, and report stranded pairs.

#include <vector>

#include "core/path_system.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace sor {

struct FailureScenario {
  /// alive[e] == false means edge e is down.
  std::vector<bool> alive;
};

/// A scenario with `count` distinct uniformly random failed edges that
/// keeps the graph connected (re-draws otherwise; throws after 1000
/// attempts — pick fewer failures on sparse graphs).
FailureScenario random_edge_failures(const Graph& g, std::size_t count,
                                     Rng& rng);

/// The paths of `system` that avoid every failed edge (multiplicity kept).
PathSystem surviving_paths(const PathSystem& system,
                           const FailureScenario& scenario);

/// Pairs of `system` that lost ALL their candidates (need re-installation
/// in a real deployment; the robustness bench counts them).
std::vector<VertexPair> stranded_pairs(const PathSystem& system,
                                       const FailureScenario& scenario);

/// Copy of `g` with failed edges removed. Edge ids are re-numbered; when
/// `edge_map` is given, the mapping old→new is written to it (kInvalidEdge
/// if dead). With every edge alive the copy equals `g`, adjacency order
/// included.
Graph surviving_graph(const Graph& g, const FailureScenario& scenario,
                      std::vector<EdgeId>* edge_map = nullptr);

}  // namespace sor
