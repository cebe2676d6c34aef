#pragma once

// Congestion attribution: who is loading the bottleneck links?
//
// Given any fractional routing expressed as a RestrictedProblem plus
// per-candidate path weights (the (problem, weights) pair every router
// result carries), decompose each edge's load into its (commodity, path)
// contributors. The report ranks links by utilization = load/capacity and
// lists each link's contributors with their absolute load and their
// `share` of the link's capacity, so that per link
//
//   Σ_contributors share == utilization
//
// exactly (both sides are recomputed from the same weights here, not read
// back from a solver). This is the invariant the bench artifact checker
// enforces to 1e-6.

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "lp/path_lp.hpp"
#include "telemetry/json.hpp"

namespace sor {

/// One (commodity, candidate path) term of a link's load.
struct PathContribution {
  Vertex src = kInvalidVertex;
  Vertex dst = kInvalidVertex;
  /// Index into problem.commodities.
  std::size_t commodity = 0;
  /// Index into that commodity's candidate list.
  std::size_t path_index = 0;
  std::size_t hops = 0;
  /// Absolute load this path places on the link (weight × multiplicity —
  /// a walk traversing the edge twice charges twice, matching
  /// add_path_load).
  double load = 0;
  /// load / link capacity; per link these sum to the utilization.
  double share = 0;
};

/// One bottleneck link with its contributor breakdown (sorted by load,
/// heaviest first).
struct LinkAttribution {
  EdgeId edge = kInvalidEdge;
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
  double capacity = 0;
  double load = 0;
  double utilization = 0;
  std::vector<PathContribution> contributors;
};

struct CongestionAttribution {
  /// Top-K links by utilization, most congested first.
  std::vector<LinkAttribution> links;
  /// Utilization of the most congested link — equals the routing's
  /// congestion.
  double max_utilization = 0;
  /// How many links carry positive load (before the top-K cut).
  std::size_t loaded_links = 0;
};

/// Decomposes the routing (problem, weights) into per-link contributor
/// breakdowns and returns the top_k most utilized links. `weights` has one
/// entry per candidate id of the problem's path table (the shape every
/// restricted solver produces). Zero-weight paths are omitted from
/// contributor lists.
CongestionAttribution attribute_congestion(
    const Graph& g, const RestrictedProblem& problem,
    std::span<const double> weights, std::size_t top_k = 8);

/// JSON shape (embedded as the artifact's "attribution" block):
///   {"top_k": k, "loaded_links": n, "max_utilization": x,
///    "links": [{"edge": id, "u": u, "v": v, "capacity": c, "load": l,
///               "utilization": l/c,
///               "contributors": [{"src": s, "dst": t, "commodity": j,
///                                 "path_index": p, "hops": h,
///                                 "load": w, "share": w/c}, ...]}, ...]}
telemetry::JsonValue attribution_to_json(const CongestionAttribution& a);

}  // namespace sor
