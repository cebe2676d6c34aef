#include "lp/path_lp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "flow/fleischer.hpp"
#include "lp/simplex.hpp"
#include "telemetry/span.hpp"
#include "util/parallel.hpp"

namespace sor {

void RestrictedProblem::add_commodity(double demand) {
  const auto next = static_cast<PathId>(paths.size());
  commodities.push_back({demand, next, next});
}

void RestrictedProblem::add_candidate(PathView path) {
  SOR_CHECK(!commodities.empty());
  commodities.back().end = paths.append(path) + 1;
}

void validate_restricted_problem(const RestrictedProblem& problem) {
  SOR_CHECK(problem.graph != nullptr);
  [[maybe_unused]] const Graph& g = *problem.graph;
  for (const RestrictedCommodity& c : problem.commodities) {
    SOR_CHECK_MSG(c.demand > 0, "restricted commodity with zero demand");
    SOR_CHECK_MSG(c.begin < c.end,
                  "restricted commodity with no candidate paths");
    SOR_CHECK(c.end <= problem.paths.size());
    const PathView first = problem.paths[c.begin];
    for (PathId id = c.begin; id < c.end; ++id) {
      const PathView p = problem.paths[id];
      SOR_CHECK_MSG(p.src == first.src && p.dst == first.dst,
                    "candidate endpoints disagree within a commodity");
      SOR_DCHECK(is_walk(g, p));
    }
  }
}

namespace {

EdgeLoad load_from_weights(const RestrictedProblem& problem,
                           std::span<const double> weights) {
  EdgeLoad load = zero_load(*problem.graph);
  for (const RestrictedCommodity& c : problem.commodities) {
    for (PathId id = c.begin; id < c.end; ++id) {
      if (weights[id] > 0) add_path_load(problem.paths[id], weights[id], load);
    }
  }
  return load;
}

// The dual bound is scale-invariant in the lengths, so exported state can
// be normalized to max = 1. Without this the control loop would compound
// the MWU's multiplicative growth epoch over epoch (each solve feeds its
// final lengths into the next) until they overflow to inf.
void normalize_lengths(std::vector<double>& lengths) {
  double max_len = 0;
  for (double l : lengths) max_len = std::max(max_len, l);
  if (max_len > 0 && std::isfinite(max_len)) {
    for (double& l : lengths) l /= max_len;
  }
}

bool all_finite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// The restricted LP's oracle: the cheapest of a commodity's candidates
/// (first minimum in candidate order), and restricted_dual_bound, which
/// only reads the problem. A credit is held as (candidate id, amount)
/// until commit() adds it to the weights.
class CandidateOracle {
 public:
  CandidateOracle(const RestrictedProblem& problem,
                  std::vector<double>& weights)
      : problem_(problem), weights_(weights) {}

  std::size_t size() const { return problem_.commodities.size(); }
  double demand(std::size_t j) const {
    return problem_.commodities[j].demand;
  }

  PathView cheapest(std::size_t j, std::span<const double> lengths) {
    const RestrictedCommodity& c = problem_.commodities[j];
    double best_len = std::numeric_limits<double>::infinity();
    best_ = c.begin;
    for (PathId id = c.begin; id < c.end; ++id) {
      double len = 0;
      for (EdgeId e : problem_.paths.edges(id)) len += lengths[e];
      if (len < best_len) {
        best_len = len;
        best_ = id;
      }
    }
    return problem_.paths[best_];
  }

  void credit(std::size_t, double amount) { held_.push_back({best_, amount}); }

  void commit() {
    for (const auto& [id, amount] : held_) weights_[id] += amount;
    held_.clear();
  }

  void rollback() { held_.clear(); }

  double dual_bound(std::span<const double> lengths) const {
    return restricted_dual_bound(problem_, lengths);
  }

  void average(double divisor, EdgeLoad& load) {
    const double inverse = 1.0 / divisor;
    for (double& w : weights_) w *= inverse;
    for (double& l : load) l *= inverse;
  }

 private:
  const RestrictedProblem& problem_;
  std::vector<double>& weights_;
  PathId best_ = 0;
  std::vector<std::pair<PathId, double>> held_;  // since the last commit()
};

}  // namespace

double restricted_dual_bound(const RestrictedProblem& problem,
                             std::span<const double> lengths) {
  SOR_CHECK(problem.graph != nullptr);
  const Graph& g = *problem.graph;
  SOR_CHECK(lengths.size() == g.num_edges());
  double numerator = 0;
  for (const RestrictedCommodity& c : problem.commodities) {
    double min_len = std::numeric_limits<double>::infinity();
    for (PathId id = c.begin; id < c.end; ++id) {
      double len = 0;
      for (EdgeId e : problem.paths.edges(id)) len += lengths[e];
      min_len = std::min(min_len, len);
    }
    numerator += c.demand * min_len;
  }
  double denominator = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    denominator += g.edge(e).capacity * std::max(lengths[e], 0.0);
  }
  if (denominator <= 0) return 0;
  return numerator / denominator;
}

RestrictedSolution route_restricted_fractions(
    const RestrictedProblem& problem, std::span<const double> fractions) {
  validate_restricted_problem(problem);
  SOR_CHECK_MSG(fractions.size() == problem.paths.size(),
                "fraction vector size " << fractions.size() << " for "
                                        << problem.paths.size()
                                        << " candidates");
  RestrictedSolution solution;
  solution.weights.assign(problem.paths.size(), 0.0);
  for (const RestrictedCommodity& c : problem.commodities) {
    const std::span<const double> own = fractions.subspan(c.begin, c.size());
    double sum = 0;
    for (double f : own) {
      SOR_CHECK(f >= 0);
      sum += f;
    }
    for (std::size_t p = 0; p < c.size(); ++p) {
      const double share =
          sum > 0 ? own[p] / sum : 1.0 / static_cast<double>(c.size());
      solution.weights[c.begin + p] = share * c.demand;
    }
  }
  solution.load = load_from_weights(problem, solution.weights);
  solution.congestion = max_congestion(*problem.graph, solution.load);
  return solution;
}

RestrictedSolution solve_restricted_exact(const RestrictedProblem& problem) {
  SOR_SPAN("lp/exact");  // inclusive of the nested lp/simplex span
  validate_restricted_problem(problem);
  [[maybe_unused]] const Graph& g = *problem.graph;

  // Variable layout: [x_{j,p} in commodity-major order | C].
  std::size_t num_path_vars = 0;
  for (const auto& c : problem.commodities) num_path_vars += c.size();
  const std::size_t c_var = num_path_vars;
  const std::size_t num_vars = num_path_vars + 1;

  LpProblem lp;
  lp.objective.assign(num_vars, 0.0);
  lp.objective[c_var] = 1.0;

  // Demand-coverage equalities.
  {
    std::size_t var = 0;
    for (const auto& c : problem.commodities) {
      LpConstraint row;
      row.coefficients.assign(num_vars, 0.0);
      for (std::size_t p = 0; p < c.size(); ++p) {
        row.coefficients[var + p] = 1.0;
      }
      row.sense = ConstraintSense::kEq;
      row.rhs = c.demand;
      lp.constraints.push_back(std::move(row));
      var += c.size();
    }
  }

  // Edge-capacity rows: Σ x over paths through e − c_e·C <= 0.
  // Only edges actually used by some candidate need a row.
  {
    std::vector<std::vector<std::pair<std::size_t, double>>> edge_terms(
        g.num_edges());
    std::size_t var = 0;
    for (const auto& c : problem.commodities) {
      for (PathId id = c.begin; id < c.end; ++id) {
        for (EdgeId e : problem.paths.edges(id)) {
          auto& terms = edge_terms[e];
          if (!terms.empty() && terms.back().first == var) {
            terms.back().second += 1.0;  // path visits a parallel edge twice
          } else {
            terms.emplace_back(var, 1.0);
          }
        }
        ++var;
      }
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (edge_terms[e].empty()) continue;
      LpConstraint row;
      row.coefficients.assign(num_vars, 0.0);
      for (const auto& [v, coeff] : edge_terms[e]) row.coefficients[v] = coeff;
      row.coefficients[c_var] = -g.edge(e).capacity;
      row.sense = ConstraintSense::kLe;
      row.rhs = 0.0;
      lp.constraints.push_back(std::move(row));
    }
  }

  const LpSolution lp_solution = solve_lp(lp);
  if (lp_solution.status == LpStatus::kTruncated ||
      lp_solution.status == LpStatus::kIterLimit) {
    // Budgeted solve ran out of time (or pivots): fall back to the
    // uniform candidate split — always feasible, never optimal — so the
    // caller's epoch completes instead of failing.
    const std::vector<double> uniform(problem.paths.size(), 1.0);
    RestrictedSolution fallback = route_restricted_fractions(problem, uniform);
    fallback.truncated = true;
    return fallback;
  }
  SOR_CHECK_MSG(lp_solution.status == LpStatus::kOptimal,
                "restricted LP did not solve to optimality (status "
                    << static_cast<int>(lp_solution.status) << ")");

  RestrictedSolution solution;
  solution.weights.assign(problem.paths.size(), 0.0);
  std::size_t var = 0;
  for (const RestrictedCommodity& c : problem.commodities) {
    for (std::size_t p = 0; p < c.size(); ++p) {
      solution.weights[c.begin + p] = std::max(0.0, lp_solution.x[var + p]);
    }
    var += c.size();
  }
  solution.load = load_from_weights(problem, solution.weights);
  solution.congestion = max_congestion(g, solution.load);
  solution.lower_bound = lp_solution.objective_value;
  return solution;
}

RestrictedSolution solve_restricted_mwu(const RestrictedProblem& problem,
                                        const RestrictedMwuOptions& options) {
  SOR_SPAN("lp/mwu");
  validate_restricted_problem(problem);
  SOR_CHECK(options.epsilon > 0 && options.epsilon < 1);
  const Graph& g = *problem.graph;
  const double eps = options.epsilon;

  const bool warm_lengths = options.warm != nullptr &&
                            !options.warm->lengths.empty() &&
                            all_finite(options.warm->lengths);
  std::vector<double> raw_warm;
  if (warm_lengths) {
    SOR_CHECK(options.warm->lengths.size() == g.num_edges());
    raw_warm.resize(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      raw_warm[e] = std::max(options.warm->lengths[e], 1e-300);
    }
  }

  // Primal warm accept: if the previous split fractions, applied to the
  // new demands, are already within (1+ε) of the dual bound certified by
  // the warm lengths, skip the solve entirely. The test uses the *raw*
  // lengths: the bound is scale-invariant and the raw certificate is
  // strictly stronger than the range-clamped one used to init the solve.
  // A failed test still brackets OPT for the phase loop's scaling.
  // The bound runs beside the warm routing.
  OptBracket bracket;
  if (warm_lengths && !options.warm->fractions.empty()) {
    double lb = 0;
    ClaimableTask bound_task(default_pool(), [&] {
      lb = restricted_dual_bound(problem, raw_warm);
    });
    RestrictedSolution warm =
        route_restricted_fractions(problem, options.warm->fractions);
    bound_task.run_or_wait();
    if (lb > 0 && warm.congestion <= (1.0 + eps) * lb) {
      warm.lower_bound = lb;
      warm.warm_accepted = true;
      normalize_lengths(raw_warm);
      warm.dual_lengths = std::move(raw_warm);
      return warm;
    }
    bracket = {lb, warm.congestion};
  }

  std::vector<double> shape;
  if (warm_lengths) {
    // Dual warm start: resume from the previous epoch's final lengths.
    // The stopping certificate compares primal vs dual explicitly, so any
    // positive initialization is sound; a good one closes the gap in
    // fewer phases. Two transforms make it *useful*, not just sound:
    //  * keep the cold init's δ-scale (the phase loop multiplies δ/c_e by
    //    this shape, whose max is 1) — starting large means thousands of
    //    phases before the per-phase updates dominate the initialization;
    //  * clamp the shape's dynamic range to kWarmRange — a converged
    //    solve leaves exponentially spread lengths, and when failures
    //    change which edges matter, an argmin flip across a range-ρ gap
    //    needs O(log ρ / ε) phases. The clamp bounds the worst case at
    //    O(log kWarmRange / ε) while keeping the learned ordering.
    constexpr double kWarmRange = 64.0;
    double max_lc = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      max_lc = std::max(max_lc, raw_warm[e] * g.edge(e).capacity);
    }
    shape.resize(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      shape[e] = std::max(raw_warm[e] * g.edge(e).capacity,
                          max_lc / kWarmRange) /
                 max_lc;
    }
  }

  // Warm-vs-cold is the interesting axis for re-solve cost: the control
  // loop lives on warm solves being cheap, so the trace label splits on
  // it.
  RestrictedSolution solution;
  solution.weights.assign(problem.paths.size(), 0.0);
  CandidateOracle oracle(problem, solution.weights);
  PhaseLoopResult loop = run_phase_loop(g, oracle, eps, shape, bracket, "mwu",
                                        warm_lengths ? "warm" : "cold");
  solution.congestion = loop.congestion;
  solution.lower_bound = loop.lower_bound;
  solution.load = std::move(loop.load);
  solution.phases = loop.phases;
  solution.truncated = loop.truncated;
  normalize_lengths(loop.lengths);
  solution.dual_lengths = std::move(loop.lengths);
  return solution;
}

}  // namespace sor
