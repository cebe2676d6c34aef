// Cross-solver property tests: the strongest correctness evidence in the
// suite. On graphs small enough to ENUMERATE every simple path, the
// restricted LP over the full path set (dense simplex) must equal the
// Garg–Könemann MCF optimum and the restricted MWU's, at demand scales
// from 1e-3 to 1e3. Plus randomized
// simplex properties (feasibility, optimality versus sampled feasible
// points) and MWU/exact agreement on random instances.

#include <gtest/gtest.h>

#include <functional>

#include "demand/generators.hpp"
#include "flow/fleischer.hpp"
#include "flow/mcf.hpp"
#include "graph/generators.hpp"
#include "lp/path_lp.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace sor {
namespace {

/// All simple s→t paths by DFS (graphs here are tiny).
std::vector<Path> enumerate_simple_paths(const Graph& g, Vertex s, Vertex t,
                                         std::size_t cap = 5000) {
  std::vector<Path> out;
  std::vector<bool> visited(g.num_vertices(), false);
  Path current{s, t, {}};
  std::function<void(Vertex)> dfs = [&](Vertex at) {
    if (out.size() >= cap) return;
    if (at == t) {
      out.push_back(current);
      return;
    }
    visited[at] = true;
    for (const HalfEdge& h : g.neighbors(at)) {
      if (visited[h.to]) continue;
      current.edges.push_back(h.id);
      dfs(h.to);
      current.edges.pop_back();
    }
    visited[at] = false;
  };
  dfs(s);
  return out;
}

/// Four random pairs with amounts in [1, 4), times `scale`.
Demand random_pairs_demand(const Graph& g, Rng& rng, double scale) {
  Demand demand;
  for (int i = 0; i < 4; ++i) {
    Vertex a = 0, b = 0;
    while (a == b) {
      a = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
      b = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
    }
    demand.add(a, b, (1.0 + rng.next_double() * 3.0) * scale);
  }
  return demand;
}

/// The three solvers on one instance. The restricted LP over EVERY simple
/// path is the true OPT, solved exactly; the Garg–Könemann MCF and the
/// restricted MWU over the same paths (two oracles on one phase loop)
/// must each bracket it within their certificate, below the phase cap.
void expect_solvers_agree(const Graph& g, const Demand& demand) {
  RestrictedProblem problem;
  problem.graph = &g;
  for (const Commodity& c : demand.commodities()) {
    const std::vector<Path> paths = enumerate_simple_paths(g, c.src, c.dst);
    ASSERT_FALSE(paths.empty());
    problem.add_commodity(c.amount);
    for (const Path& p : paths) problem.add_candidate(p);
  }
  const double exact = solve_restricted_exact(problem).congestion;

  constexpr double kEps = 0.03;
  McfOptions mcf_options;
  mcf_options.epsilon = kEps;
  McfResult mcf;
  ASSERT_NO_THROW(mcf = min_congestion_routing(g, demand.commodities(),
                                               mcf_options));
  RestrictedMwuOptions mwu_options;
  mwu_options.epsilon = kEps;
  RestrictedSolution mwu;
  ASSERT_NO_THROW(mwu = solve_restricted_mwu(problem, mwu_options));

  const auto expect_certified = [&](const char* solver, double congestion,
                                    double lower_bound, std::size_t phases,
                                    bool truncated) {
    SCOPED_TRACE(solver);
    EXPECT_LE(lower_bound, exact * (1 + 1e-6));
    EXPECT_LE(exact, congestion * (1 + 1e-6));
    EXPECT_LE(congestion, (1 + kEps) * lower_bound * (1 + 1e-9));
    EXPECT_LE(congestion, exact * (1 + kEps) + 1e-9);
    EXPECT_LT(phases, kMaxPhases);
    EXPECT_FALSE(truncated);
  };
  expect_certified("mcf", mcf.congestion, mcf.lower_bound, mcf.phases,
                   mcf.truncated);
  expect_certified("restricted mwu", mwu.congestion, mwu.lower_bound,
                   mwu.phases, mwu.truncated);
}

/// Random recursive tree: vertex v hangs off a uniform earlier vertex,
/// with a capacity in [0.5, 2).
Graph make_random_tree(std::uint32_t n, Rng& rng) {
  Graph g(n);
  for (Vertex v = 1; v < n; ++v) {
    g.add_edge(static_cast<Vertex>(rng.next_u64(v)), v,
               0.5 + rng.next_double() * 1.5);
  }
  return g;
}

// Solves must certify at every demand scale: the phase loop's scaling
// band keeps the phase count from growing with the units of the demand.
constexpr double kDemandScales[] = {1e-3, 1e-1, 1.0, 10.0, 1e3};

class FullPathLpVsMcf : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FullPathLpVsMcf, AgreeOnRandomSmallInstances) {
  const std::uint64_t seed = GetParam();
  const Graph g = make_erdos_renyi(8, 0.45, seed);
  for (double scale : kDemandScales) {
    SCOPED_TRACE(testing::Message() << "demand scale " << scale);
    Rng rng(seed * 13 + 1);
    expect_solvers_agree(g, random_pairs_demand(g, rng, scale));
  }
}

TEST_P(FullPathLpVsMcf, AgreeOnStructuredGraphsAtEveryScale) {
  const std::uint64_t seed = GetParam();
  Rng tree_rng(seed * 7 + 3);
  const std::pair<const char*, Graph> graphs[] = {
      {"ring", make_ring(6)},
      {"dumbbell", make_dumbbell(4, 2)},
      {"two-star", make_two_star(3, 2).graph},
      {"tree", make_random_tree(8, tree_rng)},
  };
  for (const auto& [name, g] : graphs) {
    for (double scale : kDemandScales) {
      SCOPED_TRACE(testing::Message() << name << ", demand scale " << scale);
      Rng rng(seed * 13 + 1);
      expect_solvers_agree(g, random_pairs_demand(g, rng, scale));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullPathLpVsMcf,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class RandomLpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLpProperty, SimplexBeatsSampledFeasiblePoints) {
  // Construct a random feasible bounded LP: A random nonnegative, b
  // chosen so x0 is strictly feasible; minimize a random c with an added
  // "box" row keeping it bounded. The simplex optimum must be feasible
  // and no worse than the value at any sampled feasible point.
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::size_t n = 4;
  const std::size_t m = 5;

  LpProblem lp;
  lp.objective.resize(n);
  for (double& c : lp.objective) c = rng.next_double(-1.0, 1.0);
  std::vector<double> x0(n);
  for (double& x : x0) x = rng.next_double(0.2, 2.0);

  for (std::size_t r = 0; r < m; ++r) {
    LpConstraint row;
    row.coefficients.resize(n);
    double lhs_at_x0 = 0;
    for (std::size_t j = 0; j < n; ++j) {
      row.coefficients[j] = rng.next_double(0.0, 1.0);
      lhs_at_x0 += row.coefficients[j] * x0[j];
    }
    row.sense = ConstraintSense::kLe;
    row.rhs = lhs_at_x0 + rng.next_double(0.1, 1.0);
    lp.constraints.push_back(std::move(row));
  }
  {
    // Bounding box: Σ x <= big.
    LpConstraint box;
    box.coefficients.assign(n, 1.0);
    box.sense = ConstraintSense::kLe;
    box.rhs = 50.0;
    lp.constraints.push_back(std::move(box));
  }

  const LpSolution solution = solve_lp(lp);
  ASSERT_EQ(solution.status, LpStatus::kOptimal) << "seed " << seed;

  // Feasibility of the simplex solution.
  for (const LpConstraint& row : lp.constraints) {
    double lhs = 0;
    for (std::size_t j = 0; j < n; ++j) {
      lhs += row.coefficients[j] * solution.x[j];
      EXPECT_GE(solution.x[j], -1e-9);
    }
    EXPECT_LE(lhs, row.rhs + 1e-7);
  }

  // Optimality against random feasible points (rejection sampling).
  int checked = 0;
  for (int trial = 0; trial < 3000 && checked < 50; ++trial) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.next_double(0.0, 3.0);
    bool feasible = true;
    for (const LpConstraint& row : lp.constraints) {
      double lhs = 0;
      for (std::size_t j = 0; j < n; ++j) lhs += row.coefficients[j] * x[j];
      if (lhs > row.rhs) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    ++checked;
    double value = 0;
    for (std::size_t j = 0; j < n; ++j) value += lp.objective[j] * x[j];
    EXPECT_GE(value + 1e-7, solution.objective_value) << "seed " << seed;
  }
  EXPECT_GT(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpProperty,
                         ::testing::Values(10, 11, 12, 13, 14, 15, 16, 17));

class MwuExactAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MwuExactAgreement, RandomRestrictedInstances) {
  const std::uint64_t seed = GetParam();
  const Graph g = make_erdos_renyi(10, 0.4, seed + 100);
  Rng rng(seed);

  RestrictedProblem problem;
  problem.graph = &g;
  for (int j = 0; j < 5; ++j) {
    Vertex a = 0, b = 0;
    while (a == b) {
      a = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
      b = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
    }
    const std::vector<Path> paths = enumerate_simple_paths(g, a, b, 6);
    if (paths.empty()) continue;
    problem.add_commodity(0.5 + rng.next_double() * 2.0);
    for (const Path& p : paths) problem.add_candidate(p);
  }
  if (problem.commodities.empty()) GTEST_SKIP();

  const RestrictedSolution exact = solve_restricted_exact(problem);
  RestrictedMwuOptions options;
  options.epsilon = 0.04;
  const RestrictedSolution mwu = solve_restricted_mwu(problem, options);
  EXPECT_GE(mwu.congestion + 1e-9, exact.congestion * 0.999);
  EXPECT_LE(mwu.congestion, exact.congestion * 1.05 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwuExactAgreement,
                         ::testing::Values(20, 21, 22, 23, 24, 25));

}  // namespace
}  // namespace sor
