#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/memory.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace sor {

namespace {

constexpr double kPivotTol = 1e-9;
constexpr double kZeroTol = 1e-10;

/// Dense simplex tableau over the standard equality form
///   min c·x  s.t.  A x = b,  x >= 0,  b >= 0,
/// after the caller has added slack/surplus/artificial columns.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), a_(rows, std::vector<double>(cols, 0.0)),
        b_(rows, 0.0), cost_(cols, 0.0), basis_(rows, 0) {}

  std::vector<std::vector<double>>& a() { return a_; }
  std::vector<double>& b() { return b_; }
  std::vector<double>& cost() { return cost_; }
  std::vector<std::size_t>& basis() { return basis_; }

  /// Runs the simplex method on the current cost vector. Assumes the
  /// current basis columns form the identity. Returns kOptimal or
  /// kUnbounded / kIterLimit / kTruncated (deadline or cancel hook; polled
  /// every 64 pivots to keep the poll off the per-pivot critical path).
  /// Pivot/degeneracy totals accumulate into `stats`; each pivot's
  /// objective is offered to `observer` so the trace shows per-pivot
  /// progress (label = phase, since phase-1 and phase-2 objectives are
  /// incomparable).
  LpStatus optimize(std::size_t max_iterations, LpSolution& stats,
                    telemetry::SolveObserver& observer) {
    reduced_from_basis();
    std::size_t degenerate_streak = 0;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      if (iter % 64 == 0 && telemetry::solve_deadline_exceeded()) {
        observer.mark_truncated();
        return LpStatus::kTruncated;
      }
      const bool bland = degenerate_streak > 2 * cols_;
      const std::size_t entering = pick_entering(bland);
      if (entering == cols_) return LpStatus::kOptimal;
      const std::size_t leaving = pick_leaving(entering, bland);
      if (leaving == rows_) return LpStatus::kUnbounded;
      if (b_[leaving] < kZeroTol) {
        ++degenerate_streak;
        ++stats.degenerate_pivots;
        observer.count("degenerate_pivots");
      } else {
        degenerate_streak = 0;
      }
      if (bland) observer.count("bland_pivots");
      pivot(leaving, entering);
      ++stats.iterations;
      // No dual bound is tracked by this tableau: bound 0 = unknown.
      observer.observe(stats.iterations, objective_value(), 0);
    }
    return LpStatus::kIterLimit;
  }

  double objective_value() const { return -z_; }

  std::vector<double> primal(std::size_t num_original) const {
    std::vector<double> x(num_original, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] < num_original) x[basis_[r]] = b_[r];
    }
    return x;
  }

  /// Value of basic variable for column j, or 0 if nonbasic.
  double column_value(std::size_t j) const {
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] == j) return b_[r];
    }
    return 0.0;
  }

  /// Replaces the cost row (used between phase 1 and phase 2).
  void set_cost(std::vector<double> cost) {
    SOR_CHECK(cost.size() == cols_);
    cost_ = std::move(cost);
    z_ = 0;
  }

  /// Forces any artificial variable still basic (at value ~0) out of the
  /// basis when a substituting column exists; returns false if a row is
  /// redundant (then the row is harmless: all non-artificial coefficients
  /// are ~0).
  void drive_out_artificials(std::size_t first_artificial) {
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] < first_artificial) continue;
      // Find a non-artificial column with a usable pivot in this row.
      for (std::size_t j = 0; j < first_artificial; ++j) {
        if (std::abs(a_[r][j]) > kPivotTol) {
          pivot(r, j);
          break;
        }
      }
    }
  }

 private:
  /// Recomputes reduced costs by eliminating basic columns from cost_.
  void reduced_from_basis() {
    z_ = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double cb = cost_[basis_[r]];
      if (std::abs(cb) < kZeroTol) continue;
      for (std::size_t j = 0; j < cols_; ++j) cost_[j] -= cb * a_[r][j];
      z_ -= cb * b_[r];
    }
  }

  std::size_t pick_entering(bool bland) const {
    if (bland) {
      for (std::size_t j = 0; j < cols_; ++j) {
        if (cost_[j] < -kPivotTol) return j;
      }
      return cols_;
    }
    std::size_t best = cols_;
    double best_cost = -kPivotTol;
    for (std::size_t j = 0; j < cols_; ++j) {
      if (cost_[j] < best_cost) {
        best_cost = cost_[j];
        best = j;
      }
    }
    return best;
  }

  std::size_t pick_leaving(std::size_t entering, bool bland) const {
    std::size_t best = rows_;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rows_; ++r) {
      const double a = a_[r][entering];
      if (a <= kPivotTol) continue;
      const double ratio = b_[r] / a;
      const bool better =
          ratio < best_ratio - kZeroTol ||
          (ratio < best_ratio + kZeroTol && best < rows_ &&
           (bland ? basis_[r] < basis_[best] : a > a_[best][entering]));
      if (best == rows_ || better) {
        best_ratio = std::min(best_ratio, ratio);
        best = r;
      }
    }
    return best;
  }

  void pivot(std::size_t row, std::size_t col) {
    const double p = a_[row][col];
    SOR_DCHECK(std::abs(p) > kPivotTol);
    const double inv = 1.0 / p;
    for (std::size_t j = 0; j < cols_; ++j) a_[row][j] *= inv;
    b_[row] *= inv;
    a_[row][col] = 1.0;  // exact

    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == row) continue;
      const double factor = a_[r][col];
      if (std::abs(factor) < kZeroTol) continue;
      for (std::size_t j = 0; j < cols_; ++j) {
        a_[r][j] -= factor * a_[row][j];
      }
      a_[r][col] = 0.0;  // exact
      b_[r] -= factor * b_[row];
      if (b_[r] < 0 && b_[r] > -kZeroTol) b_[r] = 0;
    }
    const double cfactor = cost_[col];
    if (std::abs(cfactor) > 0) {
      for (std::size_t j = 0; j < cols_; ++j) {
        cost_[j] -= cfactor * a_[row][j];
      }
      cost_[col] = 0.0;
      z_ -= cfactor * b_[row];
    }
    basis_[row] = col;
  }

  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::vector<double>> a_;
  std::vector<double> b_;
  std::vector<double> cost_;
  std::vector<std::size_t> basis_;
  double z_ = 0;  // negative of current objective value
};

}  // namespace

LpSolution solve_lp(const LpProblem& problem, std::size_t max_iterations) {
  SOR_SPAN("lp/simplex");
  const std::size_t n = problem.objective.size();
  const std::size_t m = problem.constraints.size();
  for (const LpConstraint& c : problem.constraints) {
    SOR_CHECK_MSG(c.coefficients.size() == n,
                  "constraint arity mismatches objective");
  }
  if (max_iterations == 0) max_iterations = 50 * (n + m + 10) * (m + 1);

  // Column layout: [original n | slack/surplus (one per inequality) |
  // artificial (one per row)].
  std::size_t num_slack = 0;
  for (const LpConstraint& c : problem.constraints) {
    if (c.sense != ConstraintSense::kEq) ++num_slack;
  }
  const std::size_t first_slack = n;
  const std::size_t first_artificial = n + num_slack;
  const std::size_t cols = first_artificial + m;

  Tableau t(m, cols);
  // Approximate working-set footprint: the dense tableau dominates. The
  // counter accumulates over the run; the scoped charge tracks LIVE
  // tableau bytes so the memory accountant's high-water mark reflects
  // the largest concurrent working set, not the total churned.
  SOR_COUNTER("lp/simplex_bytes")
      .add(static_cast<std::uint64_t>(m) * cols * sizeof(double));
  SOR_SCOPED_BYTES("simplex",
                   static_cast<std::uint64_t>(m) * cols * sizeof(double));
  LpSolution solution;
  std::size_t slack_cursor = first_slack;
  for (std::size_t r = 0; r < m; ++r) {
    const LpConstraint& c = problem.constraints[r];
    double sign = 1.0;
    if (c.rhs < 0) sign = -1.0;  // normalize to b >= 0
    for (std::size_t j = 0; j < n; ++j) {
      t.a()[r][j] = sign * c.coefficients[j];
    }
    t.b()[r] = sign * c.rhs;
    ConstraintSense sense = c.sense;
    if (sign < 0) {
      if (sense == ConstraintSense::kLe) {
        sense = ConstraintSense::kGe;
      } else if (sense == ConstraintSense::kGe) {
        sense = ConstraintSense::kLe;
      }
    }
    if (sense == ConstraintSense::kLe) {
      t.a()[r][slack_cursor++] = 1.0;  // slack
    } else if (sense == ConstraintSense::kGe) {
      t.a()[r][slack_cursor++] = -1.0;  // surplus
    }
    t.a()[r][first_artificial + r] = 1.0;
    t.basis()[r] = first_artificial + r;
  }

  // Phase 1: minimize the sum of artificials.
  {
    telemetry::SolveObserver observer("simplex", "phase1");
    std::vector<double> phase1_cost(cols, 0.0);
    for (std::size_t r = 0; r < m; ++r) phase1_cost[first_artificial + r] = 1.0;
    t.set_cost(std::move(phase1_cost));
    const LpStatus status = t.optimize(max_iterations, solution, observer);
    if (status == LpStatus::kIterLimit || status == LpStatus::kTruncated) {
      solution.status = status;
      return solution;
    }
    if (t.objective_value() > 1e-7) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    t.drive_out_artificials(first_artificial);
  }

  // Phase 2: the real objective; artificial columns are frozen by giving
  // them a prohibitive cost (they are at value 0 and never re-enter
  // because their reduced cost stays positive).
  {
    telemetry::SolveObserver observer("simplex", "phase2");
    std::vector<double> phase2_cost(cols, 0.0);
    for (std::size_t j = 0; j < n; ++j) phase2_cost[j] = problem.objective[j];
    constexpr double kBigM = 1e12;
    for (std::size_t j = 0; j < m; ++j) {
      phase2_cost[first_artificial + j] = kBigM;
    }
    t.set_cost(std::move(phase2_cost));
    const LpStatus status = t.optimize(max_iterations, solution, observer);
    if (status != LpStatus::kOptimal) {
      solution.status = status;
      return solution;
    }
  }

  solution.status = LpStatus::kOptimal;
  solution.x = t.primal(n);
  solution.objective_value = 0;
  for (std::size_t j = 0; j < n; ++j) {
    solution.objective_value += problem.objective[j] * solution.x[j];
  }
  return solution;
}

}  // namespace sor
