#include "lp/path_lp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lp/simplex.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace sor {

void validate_restricted_problem(const RestrictedProblem& problem) {
  SOR_CHECK(problem.graph != nullptr);
  [[maybe_unused]] const Graph& g = *problem.graph;
  for (const RestrictedCommodity& c : problem.commodities) {
    SOR_CHECK_MSG(c.demand > 0, "restricted commodity with zero demand");
    SOR_CHECK_MSG(!c.candidates.empty(),
                  "restricted commodity with no candidate paths");
    const Vertex s = c.candidates.front().src;
    const Vertex t = c.candidates.front().dst;
    for (const Path& p : c.candidates) {
      SOR_CHECK_MSG(p.src == s && p.dst == t,
                    "candidate endpoints disagree within a commodity");
      SOR_DCHECK(is_walk(g, p));
    }
  }
}

namespace {

EdgeLoad load_from_weights(const Graph& g, const RestrictedProblem& problem,
                           const std::vector<std::vector<double>>& weights) {
  EdgeLoad load = zero_load(g);
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const auto& c = problem.commodities[j];
    for (std::size_t p = 0; p < c.candidates.size(); ++p) {
      if (weights[j][p] > 0) add_path_load(c.candidates[p], weights[j][p], load);
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

}  // namespace

double restricted_dual_bound(const RestrictedProblem& problem,
                             std::span<const double> lengths) {
  SOR_CHECK(problem.graph != nullptr);
  const Graph& g = *problem.graph;
  SOR_CHECK(lengths.size() == g.num_edges());
  double numerator = 0;
  for (const RestrictedCommodity& c : problem.commodities) {
    double min_len = std::numeric_limits<double>::infinity();
    for (const Path& p : c.candidates) {
      double len = 0;
      for (EdgeId e : p.edges) len += lengths[e];
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
    const RestrictedProblem& problem,
    const std::vector<std::vector<double>>& fractions) {
  validate_restricted_problem(problem);
  SOR_CHECK(fractions.size() == problem.commodities.size());
  RestrictedSolution solution;
  solution.weights.resize(problem.commodities.size());
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const RestrictedCommodity& c = problem.commodities[j];
    SOR_CHECK_MSG(fractions[j].size() == c.candidates.size(),
                  "fraction vector size mismatch for commodity " << j);
    double sum = 0;
    for (double f : fractions[j]) {
      SOR_CHECK(f >= 0);
      sum += f;
    }
    solution.weights[j].assign(c.candidates.size(), 0.0);
    for (std::size_t p = 0; p < c.candidates.size(); ++p) {
      const double share =
          sum > 0 ? fractions[j][p] / sum
                  : 1.0 / static_cast<double>(c.candidates.size());
      solution.weights[j][p] = share * c.demand;
    }
  }
  solution.load =
      load_from_weights(*problem.graph, problem, solution.weights);
  solution.congestion = max_congestion(*problem.graph, solution.load);
  return solution;
}

RestrictedSolution solve_restricted_exact(const RestrictedProblem& problem) {
  SOR_SPAN("lp/exact");  // inclusive of the nested lp/simplex span
  validate_restricted_problem(problem);
  [[maybe_unused]] const Graph& g = *problem.graph;

  // Variable layout: [x_{j,p} in commodity-major order | C].
  std::size_t num_path_vars = 0;
  for (const auto& c : problem.commodities) num_path_vars += c.candidates.size();
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
      for (std::size_t p = 0; p < c.candidates.size(); ++p) {
        row.coefficients[var + p] = 1.0;
      }
      row.sense = ConstraintSense::kEq;
      row.rhs = c.demand;
      lp.constraints.push_back(std::move(row));
      var += c.candidates.size();
    }
  }

  // Edge-capacity rows: Σ x over paths through e − c_e·C <= 0.
  // Only edges actually used by some candidate need a row.
  {
    std::vector<std::vector<std::pair<std::size_t, double>>> edge_terms(
        g.num_edges());
    std::size_t var = 0;
    for (const auto& c : problem.commodities) {
      for (const Path& p : c.candidates) {
        for (EdgeId e : p.edges) {
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
    SOR_COUNTER("lp/exact_truncated").add();
    std::vector<std::vector<double>> uniform(problem.commodities.size());
    for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
      uniform[j].assign(problem.commodities[j].candidates.size(), 1.0);
    }
    RestrictedSolution fallback = route_restricted_fractions(problem, uniform);
    fallback.truncated = true;
    return fallback;
  }
  SOR_CHECK_MSG(lp_solution.status == LpStatus::kOptimal,
                "restricted LP did not solve to optimality (status "
                    << static_cast<int>(lp_solution.status) << ")");

  RestrictedSolution solution;
  solution.weights.resize(problem.commodities.size());
  std::size_t var = 0;
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const auto& c = problem.commodities[j];
    solution.weights[j].assign(c.candidates.size(), 0.0);
    for (std::size_t p = 0; p < c.candidates.size(); ++p) {
      solution.weights[j][p] = std::max(0.0, lp_solution.x[var + p]);
    }
    var += c.candidates.size();
  }
  solution.load = load_from_weights(g, problem, solution.weights);
  solution.congestion = max_congestion(g, solution.load);
  solution.lower_bound = lp_solution.objective_value;
  return solution;
}

RestrictedSolution solve_restricted_mwu(const RestrictedProblem& problem,
                                        const RestrictedMwuOptions& options) {
  SOR_SPAN("lp/mwu");
  validate_restricted_problem(problem);
  SOR_CHECK(options.epsilon > 0 && options.epsilon < 1);
  [[maybe_unused]] const Graph& g = *problem.graph;
  const double eps = options.epsilon;

  RestrictedSolution solution;
  solution.weights.resize(problem.commodities.size());
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    solution.weights[j].assign(problem.commodities[j].candidates.size(), 0.0);
  }
  solution.load = zero_load(g);

  const auto m = static_cast<double>(g.num_edges());
  const double delta = std::pow(m / (1.0 - eps), -1.0 / eps);
  std::vector<double> lengths(g.num_edges());
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
  if (warm_lengths && !options.warm->fractions.empty()) {
    RestrictedSolution warm =
        route_restricted_fractions(problem, options.warm->fractions);
    const double lb = restricted_dual_bound(problem, raw_warm);
    if (lb > 0 && warm.congestion <= (1.0 + eps) * lb) {
      warm.lower_bound = lb;
      warm.warm_accepted = true;
      normalize_lengths(raw_warm);
      warm.dual_lengths = std::move(raw_warm);
      SOR_COUNTER("lp/warm_accepts").add();
      return warm;
    }
  }

  if (warm_lengths) {
    // Dual warm start: resume from the previous epoch's final lengths.
    // The stopping certificate compares primal vs dual explicitly, so any
    // positive initialization is sound; a good one closes the gap in
    // fewer phases. Two transforms make it *useful*, not just sound:
    //  * rescale to the cold init's δ-scale (cold sets l_e·c_e = δ on
    //    every edge) — starting large means thousands of phases before
    //    the per-phase updates dominate the initialization;
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
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double shape =
          std::max(raw_warm[e] * g.edge(e).capacity, max_lc / kWarmRange);
      lengths[e] = delta * (shape / max_lc) / g.edge(e).capacity;
    }
  } else {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      lengths[e] = delta / g.edge(e).capacity;
    }
  }

  auto path_length = [&](const Path& p) {
    double len = 0;
    for (EdgeId e : p.edges) len += lengths[e];
    return len;
  };

  // Warm-vs-cold is the interesting axis for re-solve cost: the control
  // loop lives on warm solves being cheap, so the trace label and the
  // phase counters split on it.
  telemetry::SolveObserver observer("mwu", warm_lengths ? "warm" : "cold");
  double best_lower = 0;
  bool truncated = false;
  std::size_t phase = 0;
  for (; phase < options.max_phases; ++phase) {
    // Deadline poll at phase boundaries only, and only once at least one
    // phase has completed: the scaled prefix of completed phases is a
    // feasible routing, so truncating here always returns a usable split.
    if (phase > 0 && telemetry::solve_deadline_exceeded()) {
      truncated = true;
      observer.mark_truncated();
      break;
    }
    for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
      const auto& c = problem.commodities[j];
      double remaining = c.demand;
      while (remaining > 1e-12) {
        // Cheapest candidate under current lengths.
        std::size_t best_p = 0;
        double best_len = std::numeric_limits<double>::infinity();
        for (std::size_t p = 0; p < c.candidates.size(); ++p) {
          const double len = path_length(c.candidates[p]);
          if (len < best_len) {
            best_len = len;
            best_p = p;
          }
        }
        const Path& path = c.candidates[best_p];
        double bottleneck = std::numeric_limits<double>::infinity();
        for (EdgeId e : path.edges) {
          bottleneck = std::min(bottleneck, g.edge(e).capacity);
        }
        const double send = std::min(remaining, bottleneck);
        SOR_COUNTER("mwu/route_steps").add();
        solution.weights[j][best_p] += send;
        add_path_load(path, send, solution.load);
        for (EdgeId e : path.edges) {
          lengths[e] *= 1.0 + eps * send / g.edge(e).capacity;
        }
        remaining -= send;
        if (path.edges.empty()) break;  // degenerate s==t guard
      }
    }

    // Duality bound for the restricted problem: any routing with
    // congestion C satisfies Σ_j d_j·minlen_j <= C · Σ_e c_e·l_e.
    double numerator = 0;
    for (const auto& c : problem.commodities) {
      double min_len = std::numeric_limits<double>::infinity();
      for (const Path& p : c.candidates) {
        min_len = std::min(min_len, path_length(p));
      }
      numerator += c.demand * min_len;
    }
    double denominator = 0;
    double max_len = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      denominator += g.edge(e).capacity * lengths[e];
      max_len = std::max(max_len, lengths[e]);
    }
    best_lower = std::max(best_lower, numerator / denominator);
    // Long solves (thousands of phases) grow the lengths past the double
    // range. Every lengths-dependent quantity here is scale-invariant
    // (argmin path, the bound above), so renormalize before they
    // overflow; the guard keeps short solves bit-identical.
    if (max_len > 1e100) {
      for (double& l : lengths) l /= max_len;
    }

    const double upper =
        max_congestion(g, solution.load) / static_cast<double>(phase + 1);
    // Per-phase primal/dual trajectory: `upper` is the feasible scaled
    // congestion, `best_lower` the duality certificate; their ratio is
    // the current approximation gap.
    observer.observe(phase + 1, upper, best_lower);
    if (upper <= 1e-12) {  // all candidates are empty paths
      ++phase;
      break;
    }
    if (best_lower > 0 && upper / best_lower <= 1.0 + eps) {
      ++phase;
      break;
    }
  }
  SOR_CHECK(phase > 0);

  const auto scale = 1.0 / static_cast<double>(phase);
  for (auto& per_commodity : solution.weights) {
    for (double& w : per_commodity) w *= scale;
  }
  for (double& load : solution.load) load *= scale;
  solution.congestion = max_congestion(g, solution.load);
  solution.lower_bound = best_lower;
  solution.phases = phase;
  solution.truncated = truncated;
  normalize_lengths(lengths);
  solution.dual_lengths = std::move(lengths);
  SOR_COUNTER("mwu/phases").add(phase);
  // Two call sites, not a ternary name: SOR_COUNTER interns its name into
  // a function-local static on first execution.
  if (warm_lengths) {
    SOR_COUNTER("mwu/phases_warm").add(phase);
  } else {
    SOR_COUNTER("mwu/phases_cold").add(phase);
  }
  if (best_lower > 0) {
    SOR_GAUGE("mwu/duality_gap").set(solution.congestion / best_lower);
  }
  // A wide gap is only alarming when the solver *tried* to close it; a
  // truncated solve stopped because the caller's budget said so.
  if (!truncated && best_lower > 0 &&
      solution.congestion / best_lower > 1.0 + eps) {
    SOR_LOG(kWarn) << "restricted MWU stopped at gap "
                   << solution.congestion / best_lower;
  }
  return solution;
}

}  // namespace sor
