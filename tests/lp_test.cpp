// Unit tests for src/lp: the dense two-phase simplex on hand-solvable LPs
// (optimal / infeasible / unbounded / degenerate) and the restricted-path
// min-congestion solvers, including exact-vs-MWU cross-validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "graph/search.hpp"
#include "lp/path_lp.hpp"
#include "lp/simplex.hpp"
#include "oblivious/ksp.hpp"
#include "telemetry/observer.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sor {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6  → as minimization of -(x+y).
  // Optimum at intersection: x = 8/5, y = 6/5, value 14/5.
  LpProblem lp;
  lp.objective = {-1, -1};
  lp.constraints.push_back({{1, 2}, ConstraintSense::kLe, 4});
  lp.constraints.push_back({{3, 1}, ConstraintSense::kLe, 6});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, -14.0 / 5, 1e-8);
  EXPECT_NEAR(s.x[0], 8.0 / 5, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0 / 5, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 3, x <= 1 → x = 1, y = 2, value 5.
  LpProblem lp;
  lp.objective = {1, 2};
  lp.constraints.push_back({{1, 1}, ConstraintSense::kEq, 3});
  lp.constraints.push_back({{1, 0}, ConstraintSense::kLe, 1});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 5.0, 1e-8);
}

TEST(Simplex, GreaterEqualConstraint) {
  // min 2x + 3y s.t. x + y >= 4, x - y <= 2 → best at y as small as the
  // constraints allow: x + y = 4 with x <= y + 2: x = 3, y = 1 → 9; or
  // x = 4, y = 0 violates x - y <= 2... wait 4 - 0 = 4 > 2. So x - y = 2,
  // x + y = 4 → x = 3, y = 1: value 9.
  LpProblem lp;
  lp.objective = {2, 3};
  lp.constraints.push_back({{1, 1}, ConstraintSense::kGe, 4});
  lp.constraints.push_back({{1, -1}, ConstraintSense::kLe, 2});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 9.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblem lp;
  lp.objective = {1};
  lp.constraints.push_back({{1}, ConstraintSense::kGe, 5});
  lp.constraints.push_back({{1}, ConstraintSense::kLe, 2});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x s.t. x >= 1 (x can grow forever).
  LpProblem lp;
  lp.objective = {-1};
  lp.constraints.push_back({{1}, ConstraintSense::kGe, 1});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -3  (i.e. x >= 3).
  LpProblem lp;
  lp.objective = {1};
  lp.constraints.push_back({{-1}, ConstraintSense::kLe, -3});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
}

TEST(Simplex, DegenerateInstanceTerminates) {
  // Classic degenerate LP (multiple constraints active at the origin).
  LpProblem lp;
  lp.objective = {-0.75, 150, -0.02, 6};
  lp.constraints.push_back({{0.25, -60, -0.04, 9}, ConstraintSense::kLe, 0});
  lp.constraints.push_back({{0.5, -90, -0.02, 3}, ConstraintSense::kLe, 0});
  lp.constraints.push_back({{0, 0, 1, 0}, ConstraintSense::kLe, 1});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, -0.05, 1e-7);  // Beale's example optimum
  // Beale's example pivots through degenerate bases; the introspection
  // counters must see them, and must be bounded by the total pivot count.
  EXPECT_GT(s.iterations, 0u);
  EXPECT_GT(s.degenerate_pivots, 0u);
  EXPECT_LE(s.degenerate_pivots, s.iterations);
}

TEST(Simplex, PivotCapReturnsIterLimitNotAnInfiniteLoop) {
  // A 1-pivot budget cannot even finish phase 1 of a >= constraint; the
  // solver must report the cap distinctly (kIterLimit, never kTruncated —
  // that status is reserved for deadline/cancel hooks) with no solution.
  LpProblem lp;
  lp.objective = {2, 3};
  lp.constraints.push_back({{1, 1}, ConstraintSense::kGe, 4});
  lp.constraints.push_back({{1, -1}, ConstraintSense::kLe, 2});
  const LpSolution s = solve_lp(lp, 1);
  EXPECT_EQ(s.status, LpStatus::kIterLimit);
  EXPECT_TRUE(s.x.empty());
  EXPECT_LE(s.iterations, 2u);  // at most one pivot per phase attempted
}

TEST(Simplex, ZeroMaxIterationsMeansAutoBoundNotZeroPivots) {
  // max_iterations = 0 is the documented "pick a safe cap" sentinel; a
  // plain LP must still solve to optimality under it.
  LpProblem lp;
  lp.objective = {-1, -1};
  lp.constraints.push_back({{1, 2}, ConstraintSense::kLe, 4});
  lp.constraints.push_back({{3, 1}, ConstraintSense::kLe, 6});
  const LpSolution s = solve_lp(lp, 0);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_GT(s.iterations, 0u);
}

TEST(Simplex, RedundantEqualities) {
  // x + y = 2 listed twice; min x → x = 0, y = 2.
  LpProblem lp;
  lp.objective = {1, 0};
  lp.constraints.push_back({{1, 1}, ConstraintSense::kEq, 2});
  lp.constraints.push_back({{1, 1}, ConstraintSense::kEq, 2});
  const LpSolution s = solve_lp(lp);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective_value, 0.0, 1e-8);
}

// ---------------------------------------------------------------------
// Restricted-path LP
// ---------------------------------------------------------------------

RestrictedProblem diamond_problem(const Graph& g, double demand) {
  // Two disjoint 2-hop paths 0→3.
  RestrictedProblem problem;
  problem.graph = &g;
  problem.add_commodity(demand);
  problem.add_candidate(Path{0, 3, {0, 2}});  // via vertex 1
  problem.add_candidate(Path{0, 3, {1, 3}});  // via vertex 2
  return problem;
}

Graph diamond() {
  Graph g(4);
  g.add_edge(0, 1);  // e0
  g.add_edge(0, 2);  // e1
  g.add_edge(1, 3);  // e2
  g.add_edge(2, 3);  // e3
  return g;
}

TEST(RestrictedExact, SplitsEvenly) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  const RestrictedSolution s = solve_restricted_exact(problem);
  EXPECT_NEAR(s.congestion, 0.5, 1e-8);
  EXPECT_NEAR(s.weights[0] + s.weights[1], 1.0, 1e-8);
  EXPECT_NEAR(s.weights[0], 0.5, 1e-6);
  EXPECT_NEAR(s.lower_bound, s.congestion, 1e-6);
}

TEST(RestrictedExact, SinglePathForced) {
  const Graph g = diamond();
  RestrictedProblem problem;
  problem.graph = &g;
  problem.add_commodity(3.0);
  problem.add_candidate(Path{0, 3, {0, 2}});
  const RestrictedSolution s = solve_restricted_exact(problem);
  EXPECT_NEAR(s.congestion, 3.0, 1e-8);
}

TEST(RestrictedExact, TwoCommoditiesShareEdge) {
  // Path graph 0-1-2; commodity A: 0→2 (only path through both edges),
  // commodity B: 0→1. Congestion on edge (0,1) = dA + dB.
  Graph g(3);
  g.add_edge(0, 1);  // e0
  g.add_edge(1, 2);  // e1
  RestrictedProblem problem;
  problem.graph = &g;
  problem.add_commodity(1.0);
  problem.add_candidate(Path{0, 2, {0, 1}});
  problem.add_commodity(2.0);
  problem.add_candidate(Path{0, 1, {0}});
  const RestrictedSolution s = solve_restricted_exact(problem);
  EXPECT_NEAR(s.congestion, 3.0, 1e-8);
}

TEST(RestrictedExact, RespectsCapacities) {
  // Diamond with one fat route: capacities 4 on path A, 1 on path B.
  Graph g(4);
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 4.0);
  g.add_edge(2, 3, 1.0);
  const RestrictedProblem problem = diamond_problem(g, 5.0);
  const RestrictedSolution s = solve_restricted_exact(problem);
  // Optimal: 4 on the fat path, 1 on the thin → congestion 1.
  EXPECT_NEAR(s.congestion, 1.0, 1e-6);
}

TEST(RestrictedMwu, MatchesExactOnDiamond) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  RestrictedMwuOptions options;
  options.epsilon = 0.05;
  const RestrictedSolution s = solve_restricted_mwu(problem, options);
  EXPECT_NEAR(s.congestion, 0.5, 0.5 * 0.06);
  EXPECT_LE(s.lower_bound, 0.5 + 1e-9);
}

TEST(RestrictedMwu, CrossValidatesWithExactOnSampledSystems) {
  // Random KSP path systems on a torus; exact and MWU must agree to 1+ε.
  const Graph g = make_torus(4, 4);
  const KspRouting ksp(g, 3);
  Rng rng(7);
  const Demand demand = random_permutation_demand(g, rng);

  RestrictedProblem problem;
  problem.graph = &g;
  for (const Commodity& c : demand.commodities()) {
    problem.add_commodity(c.amount);
    for (const Path& p : ksp.candidates(c.src, c.dst)) {
      problem.add_candidate(p.src == c.src ? p : Path{
          p.dst, p.src, {p.edges.rbegin(), p.edges.rend()}});
    }
  }

  const RestrictedSolution exact = solve_restricted_exact(problem);
  RestrictedMwuOptions options;
  options.epsilon = 0.05;
  const RestrictedSolution mwu = solve_restricted_mwu(problem, options);
  EXPECT_LE(exact.congestion, mwu.congestion + 1e-6);
  EXPECT_LE(mwu.congestion, exact.congestion * (1 + options.epsilon) + 1e-6);
  // Both lower bounds are genuine lower bounds on the same optimum.
  EXPECT_LE(exact.lower_bound, exact.congestion + 1e-6);
  EXPECT_LE(mwu.lower_bound, exact.congestion + 1e-6);
}

/// The instance the pinned solves run on: a 3×4 torus, a random
/// permutation, two shortest paths per pair (oriented per commodity).
RestrictedProblem pinned_problem(const Graph& g, double skew) {
  const KspRouting ksp(g, 2);
  Rng rng(11);
  const Demand demand = random_permutation_demand(g, rng);
  RestrictedProblem problem;
  problem.graph = &g;
  std::size_t j = 0;
  for (const Commodity& c : demand.commodities()) {
    problem.add_commodity(c.amount * (j++ % 3 == 0 ? skew : 1.0));
    for (const Path& p : ksp.candidates(c.src, c.dst)) {
      problem.add_candidate(p.src == c.src ? p : Path{
          p.dst, p.src, {p.edges.rbegin(), p.edges.rend()}});
    }
  }
  return problem;
}

/// One MWU solve's every output bit, generated by a reference run of the
/// serial phase loop and written as hexfloat literals.
struct MwuPin {
  std::size_t phases;
  double congestion;
  double lower_bound;
  std::vector<double> dual_lengths;
  std::vector<double> weights;
};

void expect_pinned(const RestrictedSolution& s, const MwuPin& pin) {
  EXPECT_EQ(s.phases, pin.phases);
  EXPECT_EQ(s.congestion, pin.congestion);
  EXPECT_EQ(s.lower_bound, pin.lower_bound);
  EXPECT_FALSE(s.truncated);
  EXPECT_FALSE(s.warm_accepted);
  EXPECT_EQ(s.dual_lengths, pin.dual_lengths);
  EXPECT_EQ(s.weights, pin.weights);
}

const MwuPin kColdPin = {
    143, 0x1.8479bbf8d6d34p+0, 0x1.722889b65670fp+0,
    {0x1p+0, 0x1.a74b3c3fbea75p-16, 0x1.2362a737c6d57p-8, 0x1.2bd86d436d41ep-6,
     0x1.ba48ebf57ee87p-1, 0x1.bb021c46fc56fp-6, 0x1.150e854947178p-3,
     0x1.bb021c46fc56fp-6, 0x1.5b1bca018afdcp-6, 0x1.5b1bca018afdcp-6,
     0x1.ae8246c4ca0d6p-8, 0x1.95e4f4e534964p-7, 0x1.ba48ebf57ee87p-1,
     0x1.0370fef1aca3fp-11, 0x1.a74b3c3fbea75p-16, 0x1.73e3c7d10da1ap-8,
     0x1.0d3d595a8630ep-5, 0x1.31f462c75d935p-8, 0x1.3ad672b9ff853p-6,
     0x1.ae8246c4ca0d6p-8, 0x1.ba48ebf57ee87p-1, 0x1.6c76c74e6b8a7p-6,
     0x1.31747d30260f1p-3, 0x1.1b29fc7bf2568p-10},
    {0x1.08f377f1ada68p-1, 0x1.ee19101ca4b3p-2, 0x1.08f377f1ada68p-2,
     0x1.7b864407292ccp-1, 0x1.e35b4cfaa11e7p-1, 0x1.ca4b3055ee191p-5,
     0x1.745d1745d1746p-2, 0x1.45d1745d1745dp-1, 0x1.25982af70c881p-2,
     0x1.6d33ea8479bcp-1, 0x1.745d1745d1746p-2, 0x1.45d1745d1745dp-1,
     0x1.7f1ada67d508fp-1, 0x1.01ca4b3055ee2p-2, 0x1.ee19101ca4b3p-1,
     0x1.1e6efe35b4cfbp-5, 0x1.982af70c880e5p-1, 0x1.9f5423cddfc6bp-3,
     0x1.ca4b3055ee191p-3, 0x1.8d6d33ea8479cp-1, 0x1.fc6b699f5423dp-1,
     0x1.ca4b3055ee191p-8}};

const MwuPin kWarmPin = {
    13, 0x1.53b13b13b13b2p+1, 0x1.44ecdf643e36fp+1,
    {0x1p+0, 0x1.989bdec6030d5p-9, 0x1.78bef3b0daf9ep-8, 0x1.c33a644a119cdp-8,
     0x1.dcdc0e41f3f61p-1, 0x1.097e419ea2b22p-6, 0x1.d4617bf82008bp-4,
     0x1.0ff7f84b170ddp-6, 0x1.052d2c834185cp-7, 0x1.052d2c834185cp-7,
     0x1.813f195cc12c4p-8, 0x1.813f195cc12c4p-8, 0x1.dcdc0e41f3f62p-1,
     0x1.5e0de481d5de4p-8, 0x1.989bdec6030d5p-9, 0x1.243a705d89563p-7,
     0x1.952ba026ac065p-7, 0x1.d562ab6f81ca8p-8, 0x1.d9ca1c80f8e4ap-8,
     0x1.813f195cc12c4p-8, 0x1.dc02526e4b76ep-1, 0x1.123c3b89d1994p-7,
     0x1.ea56b8d61295bp-4, 0x1.b3defbf92379cp-8},
    {0x1.89d89d89d89d9p+0, 0x1.ec4ec4ec4ec4fp-1, 0x0p+0, 0x1p+0, 0x1p+0,
     0x0p+0, 0x1.3b13b13b13b14p+0, 0x1.44ec4ec4ec4edp+0, 0x0p+0, 0x1p+0,
     0x1.d89d89d89d89ep-2, 0x1.13b13b13b13b2p-1, 0x1.4ec4ec4ec4ec5p+0,
     0x1.313b13b13b13bp+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x0p+0,
     0x1.b13b13b13b13cp-1, 0x1.a762762762763p+0, 0x1p+0, 0x0p+0}};

/// The cold solve, then a warm one from its split and lengths on a demand
/// whose every third commodity grows 2.5× (the accept test fails).
std::pair<RestrictedSolution, RestrictedSolution> pinned_solves() {
  const Graph g = make_torus(3, 4);
  const RestrictedProblem cold_problem = pinned_problem(g, 1.0);
  RestrictedSolution cold = solve_restricted_mwu(cold_problem);
  RestrictedWarmStart warm;
  for (const RestrictedCommodity& c : cold_problem.commodities) {
    for (PathId id = c.begin; id < c.end; ++id) {
      warm.fractions.push_back(cold.weights[id] / c.demand);
    }
  }
  warm.lengths = cold.dual_lengths;
  RestrictedMwuOptions options;
  options.warm = &warm;
  RestrictedSolution rerun =
      solve_restricted_mwu(pinned_problem(g, 2.5), options);
  return {std::move(cold), std::move(rerun)};
}

TEST(RestrictedMwu, ColdAndWarmSolveBitsArePinned) {
  const auto [cold, warm] = pinned_solves();
  {
    SCOPED_TRACE("cold");
    expect_pinned(cold, kColdPin);
  }
  {
    SCOPED_TRACE("warm");
    expect_pinned(warm, kWarmPin);
  }
}

TEST(RestrictedMwu, SolvesInsideParallelForKeepTheirBits) {
  // Each body's solve submits its bounds to the pool the loop already
  // occupies: with one worker, or two, the caller runs what none claims.
  for (const std::size_t workers : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    ScopedDefaultPool scoped(workers);
    std::vector<std::pair<RestrictedSolution, RestrictedSolution>> solves(3);
    parallel_for(3, [&](std::size_t i) { solves[i] = pinned_solves(); });
    for (const auto& [cold, warm] : solves) {
      expect_pinned(cold, kColdPin);
      expect_pinned(warm, kWarmPin);
    }
  }
}

TEST(RestrictedMwu, DeadlineTruncatesToConfirmedPhases) {
  // A deadline a quarter into the solve fires mid-routing, most likely
  // while a speculative phase is in flight. The solve must return the
  // confirmed phases alone: a feasible routing, a certified bound, and
  // the bits of a solve cancelled at the poll after that many phases.
  const Graph g = make_torus(6, 6);
  const KspRouting ksp(g, 3);
  RestrictedProblem problem;
  problem.graph = &g;
  for (const Commodity& c : gravity_demand(g, 2000.0).commodities()) {
    problem.add_commodity(c.amount);
    for (const Path& p : ksp.candidates(c.src, c.dst)) {
      problem.add_candidate(p.src == c.src ? p : Path{
          p.dst, p.src, {p.edges.rbegin(), p.edges.rend()}});
    }
  }
  double seconds = 1e9;
  RestrictedSolution full;
  for (int run = 0; run < 2; ++run) {
    const Stopwatch clock;
    full = solve_restricted_mwu(problem);
    seconds = std::min(seconds, clock.seconds());
  }
  ASSERT_GE(full.phases, 20u);

  telemetry::ProgressReporter deadline;
  deadline.deadline_seconds = seconds / 4;
  RestrictedSolution cut;
  {
    const telemetry::ProgressScope scope(deadline);
    cut = solve_restricted_mwu(problem);
  }
  ASSERT_TRUE(cut.truncated);
  ASSERT_GE(cut.phases, 1u);
  ASSERT_LT(cut.phases, full.phases);
  EXPECT_GT(cut.lower_bound, 0.0);
  EXPECT_LE(cut.lower_bound, cut.congestion);
  EdgeLoad load = zero_load(g);
  for (const RestrictedCommodity& c : problem.commodities) {
    double routed = 0;
    for (PathId id = c.begin; id < c.end; ++id) {
      routed += cut.weights[id];
      add_path_load(problem.paths[id], cut.weights[id], load);
    }
    EXPECT_NEAR(routed, c.demand, 1e-12 * c.demand);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(load[e], cut.load[e], 1e-9 * std::max(1.0, load[e]));
  }
  EXPECT_EQ(cut.congestion, max_congestion(g, cut.load));

  std::size_t polls = 0;
  telemetry::ProgressReporter cancel;
  cancel.cancel = [&] { return ++polls == cut.phases; };
  RestrictedSolution counted;
  {
    const telemetry::ProgressScope scope(cancel);
    counted = solve_restricted_mwu(problem);
  }
  EXPECT_TRUE(counted.truncated);
  EXPECT_EQ(counted.phases, cut.phases);
  EXPECT_EQ(counted.congestion, cut.congestion);
  EXPECT_EQ(counted.lower_bound, cut.lower_bound);
  EXPECT_EQ(counted.dual_lengths, cut.dual_lengths);
  EXPECT_EQ(counted.weights, cut.weights);
  EXPECT_EQ(counted.load, cut.load);
}

TEST(RestrictedWarm, RepeatSolveIsAcceptedWithoutPhases) {
  // Warm-starting from a solution of the *same* problem must short-circuit:
  // the accept test re-checks exactly the MWU stopping condition.
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  RestrictedMwuOptions options;
  options.epsilon = 0.05;
  const RestrictedSolution cold = solve_restricted_mwu(problem, options);
  ASSERT_FALSE(cold.dual_lengths.empty());
  EXPECT_FALSE(cold.warm_accepted);
  EXPECT_GE(cold.phases, 1u);

  RestrictedWarmStart warm;
  // One commodity, so its weights are the fractions by candidate id.
  ASSERT_EQ(problem.commodities.size(), 1u);
  warm.fractions = cold.weights;  // renormalized internally
  warm.lengths = cold.dual_lengths;
  options.warm = &warm;
  const RestrictedSolution rerun = solve_restricted_mwu(problem, options);
  EXPECT_TRUE(rerun.warm_accepted);
  EXPECT_EQ(rerun.phases, 0u);
  EXPECT_NEAR(rerun.congestion, cold.congestion, 1e-9);
  EXPECT_LE(rerun.congestion,
            (1 + options.epsilon) * rerun.lower_bound + 1e-9);
}

TEST(RestrictedWarm, DualBoundIsSoundAndScaleInvariant) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  // Optimum is 0.5; ANY positive length vector must lower-bound it.
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> lengths(g.num_edges());
    for (double& l : lengths) l = 0.01 + rng.next_double();
    const double bound = restricted_dual_bound(problem, lengths);
    EXPECT_LE(bound, 0.5 + 1e-9);
    std::vector<double> scaled = lengths;
    for (double& l : scaled) l *= 1000.0;
    EXPECT_NEAR(restricted_dual_bound(problem, scaled), bound, 1e-9);
  }
  // The uniform vector is exactly tight on the symmetric diamond.
  const std::vector<double> uniform(g.num_edges(), 1.0);
  EXPECT_NEAR(restricted_dual_bound(problem, uniform), 0.5, 1e-12);
}

TEST(RestrictedWarm, RouteFractionsAppliesTheSplit) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  const RestrictedSolution one_path =
      route_restricted_fractions(problem, std::vector<double>{1.0, 0.0});
  EXPECT_NEAR(one_path.congestion, 1.0, 1e-12);
  const RestrictedSolution even =
      route_restricted_fractions(problem, std::vector<double>{0.5, 0.5});
  EXPECT_NEAR(even.congestion, 0.5, 1e-12);
  // All-zero fractions fall back to a uniform split.
  const RestrictedSolution uniform =
      route_restricted_fractions(problem, std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(uniform.congestion, 0.5, 1e-12);
  // Unnormalized fractions are renormalized per commodity.
  const RestrictedSolution scaled =
      route_restricted_fractions(problem, std::vector<double>{2.0, 2.0});
  EXPECT_NEAR(scaled.congestion, 0.5, 1e-12);
}

TEST(RestrictedWarm, StaleWarmStartCostsPhasesNotCorrectness) {
  // A lopsided warm split (congestion 1.0 vs optimum 0.5) fails the
  // accept test and the MWU re-solves from the warm lengths — landing on
  // the same (1+ε) guarantee as a cold solve.
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  RestrictedWarmStart warm;
  warm.fractions = {1.0, 0.0};
  warm.lengths.assign(g.num_edges(), 1.0);
  RestrictedMwuOptions options;
  options.epsilon = 0.05;
  options.warm = &warm;
  const RestrictedSolution s = solve_restricted_mwu(problem, options);
  EXPECT_FALSE(s.warm_accepted);
  EXPECT_GE(s.phases, 1u);
  EXPECT_NEAR(s.congestion, 0.5, 0.5 * 0.06);
}

TEST(RestrictedValidate, RejectsMalformedProblems) {
  const Graph g = diamond();
  {
    RestrictedProblem p;
    p.graph = &g;
    p.add_commodity(0);  // zero demand
    p.add_candidate(Path{0, 3, {0, 2}});
    EXPECT_THROW(validate_restricted_problem(p), CheckError);
  }
  {
    RestrictedProblem p;
    p.graph = &g;
    p.add_commodity(1);  // no candidates
    EXPECT_THROW(validate_restricted_problem(p), CheckError);
  }
  {
    RestrictedProblem p;
    p.graph = &g;
    p.add_commodity(1);
    p.add_candidate(Path{0, 3, {0, 2}});
    p.add_candidate(Path{0, 1, {0}});  // endpoint mismatch
    EXPECT_THROW(validate_restricted_problem(p), CheckError);
  }
}

TEST(RestrictedExact, WeightsCoverDemand) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 7.0);
  const RestrictedSolution s = solve_restricted_exact(problem);
  double total = 0;
  for (double w : s.weights) total += w;
  EXPECT_NEAR(total, 7.0, 1e-6);
}

}  // namespace
}  // namespace sor
