#pragma once

// Offline-optimal congestion via maximum concurrent flow.
//
// OPT(D) — the minimum achievable max edge congestion for routing demand D
// fractionally over ALL paths — is the denominator of every competitive
// ratio the experiments report. We compute it with the Garg–Könemann /
// Fleischer multiplicative-weights algorithm and return BOTH
//   * the congestion of the concrete fractional routing found
//     (a primal upper bound on OPT), and
//   * the LP-duality lower bound
//       max over lengths l of  Σ_j d_j · dist_l(s_j, t_j) / Σ_e c_e l_e
//     evaluated at the final lengths (a certified lower bound on OPT).
// The iteration stops once their ratio is below 1 + epsilon, so either
// number is a (1 ± ε)-approximation of OPT. The phase loop is the one the
// restricted path LP runs too (flow/fleischer.hpp); this file supplies its
// Dijkstra oracle.

#include <span>
#include <unordered_map>
#include <vector>

#include "flow/congestion.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace sor {

struct McfOptions {
  /// Target relative gap between upper and lower bound.
  double epsilon = 0.05;
  /// If true, also return the per-commodity path decomposition of the
  /// routing (weights normalized to 1× demand) — the demand-AWARE path
  /// oracle the E14 ablation compares oblivious sampling against.
  bool record_paths = false;
};

struct McfResult {
  /// Congestion of the returned fractional routing (upper bound on OPT).
  double congestion = 0;
  /// Certified lower bound on OPT congestion.
  double lower_bound = 0;
  /// Per-edge load of the returned routing (normalized to 1× demand).
  EdgeLoad load;
  /// Phases executed.
  std::size_t phases = 0;
  /// Per-commodity path weights (same order as the input commodities;
  /// empty unless options.record_paths). Weights sum to each commodity's
  /// amount.
  std::vector<std::unordered_map<Path, double, PathHash>> paths;
  /// True when a telemetry deadline/cancel hook stopped the solve at a
  /// phase boundary. The returned routing (the scaled prefix of completed
  /// phases) is still feasible, and lower_bound is still certified; only
  /// the (1+ε) gap guarantee is lost.
  bool truncated = false;
};

/// Approximates OPT(D) for the given commodities. All commodities must
/// have positive amount and distinct endpoints. Deterministic. Stops
/// uncertified (and warns) at kMaxPhases.
McfResult min_congestion_routing(const Graph& g,
                                 std::span<const Commodity> commodities,
                                 const McfOptions& options = {});

}  // namespace sor
