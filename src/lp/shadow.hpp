#pragma once

// Shadow-optimal solve for the routing-quality observatory.
//
// The paper's guarantee is a bound on the competitive ratio — achieved
// congestion over OPT(D), the unrestricted min-congestion MCF value for
// the realized matrix. The control loop never sees that denominator at
// run time, so the observatory periodically runs a *shadow* solve: an
// exact (up to the MWU epsilon) MCF on the realized matrix, off the
// serving path, whose value anchors the per-epoch regret ratio.
//
// Determinism contract: min_congestion_routing is deterministic, so for a
// fixed graph + matrix + options the shadow value is bit-identical across
// runs — which is what lets record/replay reproduce quality blocks byte
// for byte. The solve honors the ambient telemetry deadline/cancel hooks
// (ProgressScope) like every other solver; a truncated shadow solve is
// flagged so consumers know the regret denominator lost its (1+eps)
// guarantee. Callers that need byte-identical replays must not install a
// wall-clock deadline around the shadow solve.

#include <cstddef>

#include "demand/demand.hpp"
#include "graph/graph.hpp"

namespace sor {

struct ShadowSolveOptions {
  /// Target relative gap of the underlying MCF (primal within (1+eps) of
  /// the certified lower bound).
  double epsilon = 0.05;
  /// Hard cap on MCF phases.
  std::size_t max_phases = 5000;
  /// Wall-clock budget in milliseconds (0 = none). Installs a local
  /// ProgressScope for this solve only; ambient cancel hooks apply either
  /// way. Budgeted shadow solves are NOT byte-replayable.
  double deadline_ms = 0;
};

struct ShadowSolveResult {
  /// Congestion of the MCF routing found — primal upper bound on OPT(D),
  /// the regret denominator.
  double opt_congestion = 0;
  /// Certified duality lower bound on OPT(D).
  double lower_bound = 0;
  std::size_t phases = 0;
  /// The solve was stopped by a deadline/cancel hook; opt_congestion is
  /// still feasible and lower_bound still certified, but the (1+eps) gap
  /// is not guaranteed.
  bool truncated = false;
};

/// Runs the shadow-optimal MCF for `realized` on `g`. Timed by the
/// "lp/shadow" span (and so its "lp/shadow_seconds" latency sketch) so
/// observatory overhead is attributable next to the serving solvers.
/// Empty matrices (no positive-demand pair) return all zeros.
ShadowSolveResult solve_shadow_optimal(const Graph& g, const Demand& realized,
                                       const ShadowSolveOptions& options = {});

}  // namespace sor
