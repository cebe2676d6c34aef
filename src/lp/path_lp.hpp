#pragma once

// Min-congestion routing restricted to candidate path sets — the LP that
// semi-oblivious routing solves once the demand is revealed (Stage 4 of
// the paper's protocol):
//
//   minimize    C
//   subject to  Σ_p x_{j,p} = d_j                   for each commodity j
//               Σ_{(j,p): e ∈ p} x_{j,p} <= c_e·C   for each edge e
//               x >= 0
//
// Two backends:
//  * solve_restricted_exact     — the dense simplex (small instances,
//                                 certified optimum);
//  * solve_restricted_mwu       — Fleischer-style multiplicative weights
//                                 ((1+ε)-approx, scales to every instance
//                                 in the experiment suite, returns a
//                                 duality lower bound as certificate); the
//                                 phase loop is flow/fleischer.hpp's, with
//                                 an argmin-over-candidates oracle.
// The SemiObliviousRouter picks a backend by instance size; tests
// cross-validate them.

#include <span>
#include <vector>

#include "flow/congestion.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace sor {

/// One commodity of the restricted problem: a demand and the contiguous
/// range of its candidates' ids in the problem's path table.
struct RestrictedCommodity {
  double demand = 0;
  PathId begin = 0;
  PathId end = 0;

  std::size_t size() const { return end - begin; }
};

struct RestrictedProblem {
  const Graph* graph = nullptr;
  /// Every commodity's candidates, commodity after commodity; all of a
  /// commodity's candidates share its endpoints.
  PathTable paths;
  std::vector<RestrictedCommodity> commodities;

  /// Opens the next commodity, with no candidates yet.
  void add_commodity(double demand);
  /// Appends a candidate to the last commodity.
  void add_candidate(PathView path);
  /// Candidate p of commodity j.
  PathView candidate(std::size_t j, std::size_t p) const {
    return paths[commodities[j].begin + static_cast<PathId>(p)];
  }
};

struct RestrictedSolution {
  /// Congestion of the returned weights (primal; normalized to 1× demand).
  double congestion = 0;
  /// Lower bound on the restricted optimum (duality certificate; the
  /// exact backend sets it equal to `congestion`).
  double lower_bound = 0;
  /// weights[id] ≥ 0 for each candidate id of the problem's path table,
  /// summing to d_j over commodity j's candidates (0 for an id no
  /// commodity covers).
  std::vector<double> weights;
  /// Per-edge load of the returned routing.
  EdgeLoad load;
  /// MWU phases executed (0 for the exact backend or a warm accept).
  std::size_t phases = 0;
  /// True iff a warm start was accepted without re-solving.
  bool warm_accepted = false;
  /// Final MWU dual edge lengths (empty for the exact backend) — feed
  /// them back through RestrictedWarmStart to warm-start the next epoch.
  /// Normalized to max = 1 (the dual bound is scale-invariant) so
  /// feeding them back epoch after epoch cannot overflow.
  std::vector<double> dual_lengths;
  /// True when a telemetry deadline/cancel hook stopped the solve early.
  /// The returned routing is still feasible (MWU: the scaled prefix of
  /// completed phases; exact: uniform split over candidates) but carries
  /// no optimality guarantee; lower_bound remains valid when non-zero.
  bool truncated = false;
};

/// Warm-start state carried between epochs of the TE control loop: the
/// previous solution re-expressed as per-candidate split fractions plus
/// the MWU's final dual edge lengths. Both are optional (empty = absent).
///
/// Soundness does not depend on where the state comes from: any positive
/// length vector yields a valid duality lower bound (see
/// restricted_dual_bound), and any fraction vector yields a feasible
/// routing, so a stale warm start can cost phases but never correctness.
struct RestrictedWarmStart {
  /// fractions[id] ≥ 0 for each candidate id of the problem's path table
  /// (size problem.paths.size() when non-empty); renormalized per
  /// commodity internally.
  std::vector<double> fractions;
  /// Per-edge dual lengths (size num_edges()); non-positive entries are
  /// clamped to a tiny positive value.
  std::vector<double> lengths;

  bool empty() const { return fractions.empty() && lengths.empty(); }
};

struct RestrictedMwuOptions {
  double epsilon = 0.05;
  /// Optional warm start (not owned). When fractions and lengths are both
  /// present and the warm routing is already within (1+ε) of the dual
  /// bound certified by the warm lengths, the solve is skipped entirely
  /// (warm_accepted). Otherwise the MWU starts from the warm lengths
  /// instead of the uniform δ/c_e initialization.
  const RestrictedWarmStart* warm = nullptr;
};

/// Exact optimum via simplex. Throws CheckError if the solver fails
/// numerically (does not happen on the instance sizes it is used for).
/// If a telemetry deadline/cancel hook truncates the simplex (or it hits
/// its iteration cap), falls back to the uniform candidate split and
/// returns it with truncated = true instead of failing.
RestrictedSolution solve_restricted_exact(const RestrictedProblem& problem);

/// (1+ε)-approximate optimum via multiplicative weights (optionally
/// warm-started through `options.warm`). Stops uncertified (and warns) at
/// kMaxPhases.
RestrictedSolution solve_restricted_mwu(
    const RestrictedProblem& problem, const RestrictedMwuOptions& options = {});

/// Duality lower bound on the restricted optimum certified by an
/// arbitrary positive length vector:
///   OPT ≥ Σ_j d_j·minlen_j / Σ_e c_e·l_e.
/// The bound is scale-invariant in `lengths`, which is what makes reusing
/// a previous epoch's final MWU lengths sound.
double restricted_dual_bound(const RestrictedProblem& problem,
                             std::span<const double> lengths);

/// Routes the problem's demands along fixed split fractions, one per
/// candidate id of its path table (renormalized per commodity; a
/// commodity whose fractions sum to 0 splits uniformly). Returns the
/// resulting feasible solution with lower_bound = 0 — the primal half of a
/// warm-start accept test, also used by the control loop to apply the
/// last installed split to a newly realized demand.
RestrictedSolution route_restricted_fractions(
    const RestrictedProblem& problem, std::span<const double> fractions);

/// Validates a RestrictedProblem (endpoints match, demands positive,
/// every commodity has at least one candidate). Throws CheckError.
void validate_restricted_problem(const RestrictedProblem& problem);

}  // namespace sor
