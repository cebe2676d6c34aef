// Unit tests for src/core: PathSystem semantics, (λ·k)-sampling, the
// semi-oblivious router (fractional + integral), and evaluation helpers.

#include <gtest/gtest.h>

#include <cmath>

#include "core/attribution.hpp"
#include "core/evaluate.hpp"
#include "core/path_system.hpp"
#include "core/router.hpp"
#include "core/sampler.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "graph/search.hpp"
#include "oblivious/ksp.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/shortest_path.hpp"
#include "oblivious/valiant.hpp"

namespace sor {
namespace {

TEST(PathSystem, CanonicalizesOrientation) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  PathSystem ps;
  ps.add(Path{2, 0, {e12, e01}});  // given dst→src
  EXPECT_TRUE(ps.has_pair(0, 2));
  EXPECT_TRUE(ps.has_pair(2, 0));
  const auto forward = ps.paths(2, 0);
  ASSERT_EQ(forward.size(), 1u);
  EXPECT_EQ(forward[0].src, 0u);
  EXPECT_EQ(forward[0].dst, 2u);
  EXPECT_EQ(to_path(forward[0]).edges, (std::vector<EdgeId>{e01, e12}));
}

TEST(PathSystem, KeepsMultiplicity) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1);
  PathSystem ps;
  ps.add(Path{0, 1, {e}});
  ps.add(Path{0, 1, {e}});
  EXPECT_EQ(ps.total_paths(), 2u);
  EXPECT_EQ(ps.max_sparsity(), 2u);
  ps.deduplicate();
  EXPECT_EQ(ps.total_paths(), 1u);
}

TEST(PathSystem, RejectsTrivialPath) {
  PathSystem ps;
  EXPECT_THROW(ps.add(Path{1, 1, {}}), CheckError);
}

TEST(PathSystem, PairsSortedAndStatistics) {
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e23 = g.add_edge(2, 3);
  PathSystem ps;
  ps.add(Path{2, 3, {e23}});
  ps.add(Path{0, 1, {e01}});
  ps.add(Path{0, 2, {e01, e12}});
  const auto pairs = ps.pairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 1u);
  EXPECT_EQ(pairs[2].a, 2u);
  EXPECT_EQ(ps.max_hops(), 2u);
}

TEST(PathSystem, MergeUnionsMultisets) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  PathSystem a, b;
  a.add(Path{0, 1, {e01}});
  b.add(Path{0, 1, {e01}});
  b.add(Path{1, 2, {e12}});
  const PathSystem m = merge(a, b);
  EXPECT_EQ(m.total_paths(), 3u);
  EXPECT_EQ(m.paths(0, 1).size(), 2u);
}

TEST(Sampler, ProducesExactlyKPathsPerPair) {
  const Graph g = make_hypercube(4);
  const ValiantHypercube routing(g, 4);
  SampleOptions options;
  options.k = 5;
  const PathSystem ps = sample_path_system_all_pairs(routing, options, 1);
  EXPECT_EQ(ps.num_pairs(), 16u * 15 / 2);
  for (const VertexPair& pair : ps.pairs()) {
    EXPECT_EQ(ps.paths(pair.a, pair.b).size(), 5u);
  }
}

TEST(Sampler, DeterministicInSeed) {
  const Graph g = make_grid(3, 3);
  const ShortestPathRouting routing(g);
  SampleOptions options;
  options.k = 3;
  const PathSystem a = sample_path_system_all_pairs(routing, options, 42);
  const PathSystem b = sample_path_system_all_pairs(routing, options, 42);
  EXPECT_EQ(a.total_paths(), b.total_paths());
  for (const VertexPair& pair : a.pairs()) {
    const auto pa = a.paths(pair.a, pair.b);
    const auto pb = b.paths(pair.a, pair.b);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  }
}

TEST(Sampler, LambdaScalingUsesMinCut) {
  // Dumbbell with 3 bridges: portal pair has λ = 3, intra-clique pairs
  // have λ = clique connectivity (≥ 4 when clamped at 4).
  const Graph g = make_dumbbell(5, 3);
  const KspRouting routing(g, 8);
  SampleOptions options;
  options.k = 2;
  options.lambda_cap = 4;
  const std::vector<VertexPair> pairs{VertexPair::canonical(0, 5),
                                      VertexPair::canonical(1, 2)};
  const PathSystem ps = sample_path_system(routing, pairs, options, 3);
  // Portals 0 and 5: λ capped... the direct bridges give λ(0,5) = 3 +
  // possible... actually λ(0,5) >= 3 (bridges) and is clamped at 4.
  EXPECT_GE(ps.paths(0, 5).size(), 2u * 3);
  // Intra-clique pair (1,2) in K5: λ = 4 (clamped).
  EXPECT_EQ(ps.paths(1, 2).size(), 2u * 4);
}

TEST(Sampler, ForDemandCoversSupportOnly) {
  const Graph g = make_grid(4, 4);
  const ShortestPathRouting routing(g);
  Demand d;
  d.add(0, 15, 1.0);
  d.add(3, 12, 1.0);
  SampleOptions options;
  options.k = 2;
  const PathSystem ps = sample_path_system_for_demand(routing, d, options, 9);
  EXPECT_EQ(ps.num_pairs(), 2u);
  EXPECT_TRUE(ps.has_pair(0, 15));
  EXPECT_TRUE(ps.has_pair(12, 3));
}

TEST(Router, SingleCommoditySplitsOnDiamond) {
  Graph g(4);
  const EdgeId e0 = g.add_edge(0, 1);
  const EdgeId e1 = g.add_edge(0, 2);
  const EdgeId e2 = g.add_edge(1, 3);
  const EdgeId e3 = g.add_edge(2, 3);
  PathSystem ps;
  ps.add(Path{0, 3, {e0, e2}});
  ps.add(Path{0, 3, {e1, e3}});
  Demand d;
  d.add(0, 3, 1.0);
  const SemiObliviousRouter router(g, ps);
  const FractionalRoute route = router.route_fractional(d);
  EXPECT_NEAR(route.congestion, 0.5, 1e-6);
  EXPECT_EQ(route.dilation, 2u);
}

TEST(Router, ThrowsWithoutCandidatesUnlessFallback) {
  const Graph g = make_grid(3, 3);
  PathSystem empty;
  Demand d;
  d.add(0, 8, 1.0);
  {
    const SemiObliviousRouter router(g, empty);
    EXPECT_THROW(router.route_fractional(d), CheckError);
  }
  {
    RouterOptions options;
    options.add_shortest_fallback = true;
    const SemiObliviousRouter router(g, empty, options);
    const FractionalRoute route = router.route_fractional(d);
    EXPECT_NEAR(route.congestion, 1.0, 1e-9);  // single BFS path
    EXPECT_EQ(route.dilation, 4u);
  }
}

TEST(Router, FailureMaskedPairFollowsFallbackContract) {
  // A pair whose candidates are all masked out by failures (activation
  // flags, not an empty system) must behave exactly like a pair with no
  // candidates: CheckError without add_shortest_fallback, BFS fallback
  // with it.
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e02 = g.add_edge(0, 2);
  const EdgeId e13 = g.add_edge(1, 3);
  const EdgeId e23 = g.add_edge(2, 3);
  g.add_edge(0, 3);
  PathSystem ps;
  ps.add(Path{0, 3, {e01, e13}});
  ps.add(Path{0, 3, {e02, e23}});
  Demand d;
  d.add(0, 3, 1.0);

  PathActivation activation(ps);
  activation.set_active(ps.ids(0, 3)[0], false);
  activation.set_active(ps.ids(0, 3)[1], false);
  {
    SemiObliviousRouter router(g, ps);
    router.set_activation(&activation);
    EXPECT_THROW(router.route_fractional(d), CheckError);
  }
  {
    RouterOptions options;
    options.add_shortest_fallback = true;
    SemiObliviousRouter router(g, ps, options);
    router.set_activation(&activation);
    const FractionalRoute route = router.route_fractional(d);
    EXPECT_NEAR(route.congestion, 1.0, 1e-9);
    EXPECT_EQ(route.dilation, 1u);  // BFS finds the direct 0–3 edge
  }
  // Partially masked pair: the LP sees only the surviving candidate.
  activation.set_active(ps.ids(0, 3)[1], true);
  {
    SemiObliviousRouter router(g, ps);
    router.set_activation(&activation);
    const FractionalRoute route = router.route_fractional(d);
    EXPECT_NEAR(route.congestion, 1.0, 1e-9);
    ASSERT_EQ(route.problem.commodities.size(), 1u);
    EXPECT_EQ(route.problem.commodities[0].size(), 1u);
  }
}

TEST(PathActivation, ExtrasJoinTheCandidateList) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e02 = g.add_edge(0, 2);
  PathSystem ps;
  ps.add(Path{0, 2, {e01, e12}});
  PathActivation activation(ps);
  EXPECT_EQ(activation.num_active(0, 2), 1u);

  const PathId extra = activation.add_extra(Path{2, 0, {e02}});
  EXPECT_EQ(extra, 1u);  // after the base ids
  EXPECT_EQ(activation.extras(0, 2).size(), 1u);
  EXPECT_EQ(activation.num_active(0, 2), 2u);
  RestrictedProblem problem;
  problem.graph = &g;
  std::vector<PathId> ids;
  ASSERT_EQ(append_commodity(problem, {0, 2, 1.0}, ps, &activation, &ids),
            2u);
  EXPECT_EQ(problem.candidate(0, 1).src, 0u);  // extra stored canonically
  EXPECT_EQ(to_path(problem.candidate(0, 1)).edges,
            (std::vector<EdgeId>{e02}));
  // Each candidate's activation id, in candidate order.
  EXPECT_EQ(ids, (std::vector<PathId>{ps.ids(0, 2)[0], extra}));

  activation.set_active(extra, false);
  EXPECT_EQ(activation.num_active(0, 2), 1u);
  activation.set_active(ps.ids(0, 2)[0], false);
  EXPECT_EQ(activation.num_active(0, 2), 0u);
  EXPECT_EQ(append_commodity(problem, {0, 2, 1.0}, ps, &activation, &ids),
            0u);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(PathActivation, HammingCountsFlipsAndOneSidedKeys) {
  PathSystem ps;
  ps.add(Path{0, 1, {0}});
  ps.add(Path{0, 1, {1, 2}});
  PathActivation activation(ps);
  const auto flags = [&] {
    return std::vector<char>(activation.flags().begin(),
                             activation.flags().end());
  };
  const std::vector<char> before = flags();
  EXPECT_EQ(activation.churn_since(before), 0u);

  activation.set_active(ps.ids(0, 1)[1], false);
  const std::vector<char> flipped = flags();
  EXPECT_EQ(activation.churn_since(before), 1u);

  // A newly installed extra is an id only the new mask has — it counts
  // as churn even though no shared flag changed.
  activation.add_extra(Path{0, 1, {3}});
  ASSERT_EQ(activation.size(), 3u);
  EXPECT_EQ(activation.churn_since(flipped), 1u);
  EXPECT_EQ(activation.churn_since(before), 2u);
}

TEST(SplitTable, SortsMergesAndDropsZeroRows) {
  const Path a{0, 1, {0}};
  const Path b{0, 1, {1, 2}};
  const Path c{2, 3, {3}};
  // Out of order, a repeated path, a zero row, and a pair with only zeros.
  const SplitTable table(std::vector<SplitRow>{{c, 1.0},
                                               {b, 0.25},
                                               {a, 0.5},
                                               {b, 0.25},
                                               {a, 0.0},
                                               {Path{1, 2, {1}}, 0.0}});
  ASSERT_EQ(table.num_pairs(), 2u);
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.pairs()[0].pair, (VertexPair{0, 1}));
  EXPECT_EQ(table.pairs()[1].pair, (VertexPair{2, 3}));
  const SplitRows rows = table.rows(1, 0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (SplitRow{a, 0.5}));
  EXPECT_EQ(rows[1], (SplitRow{b, 0.5}));
  EXPECT_TRUE(table.rows(1, 2).empty());
}

TEST(SplitTable, FromWeightsMergesEqualCandidatesAndRejectsReversedPaths) {
  const Path a{0, 1, {0}};
  RestrictedProblem problem;
  problem.add_commodity(2.0);
  for (const Path& p : {a, Path{0, 1, {1, 2}}, a}) problem.add_candidate(p);
  const SplitTable table =
      SplitTable::from_weights(problem, std::vector<double>{0.5, 0.5, 1.0});
  const SplitRows rows = table.rows(0, 1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (SplitRow{a, 0.75}));
  EXPECT_EQ(rows[1].fraction, 0.25);

  RestrictedProblem reversed_problem;
  reversed_problem.add_commodity(2.0);
  reversed_problem.add_candidate(Path{1, 0, {0}});
  EXPECT_THROW(
      SplitTable::from_weights(reversed_problem, std::vector<double>{2.0}),
      CheckError);
}

TEST(SplitTable, MergedFractionsAreTheRowsFromWeightsInstalls) {
  const Path a{0, 1, {0}};
  const Path b{0, 1, {1, 2}};
  const Path c{0, 1, {3, 4}};
  const Path d{2, 3, {5}};
  RestrictedProblem problem;
  problem.add_commodity(3.0);
  for (const Path& p : {a, b, a, c, b}) problem.add_candidate(p);
  problem.add_commodity(2.0);
  problem.add_candidate(d);
  // b's first copy carries nothing, c carries nothing at all.
  const std::vector<double> weights = {0.3, 0.0, 0.7, 0.0, 1.1, 2.0};
  std::vector<double> shares;
  const SplitTable table = SplitTable::from_weights(problem, weights, &shares);
  // Flat by candidate id: the first copy of a path carries the merged
  // row, later copies and row-less candidates 0.
  EXPECT_EQ(shares, (std::vector<double>{0.3 / 3.0 + 0.7 / 3.0, 1.1 / 3.0,
                                         0.0, 0.0, 0.0, 1.0}));
  // Every row is its path's first copy's share.
  ASSERT_EQ(table.num_rows(), 3u);
  for (const SplitPair& pair : table.pairs()) {
    for (const SplitRow row : table.rows(pair)) {
      PathId first = 0;
      while (!(problem.paths[first] == row.path)) ++first;
      EXPECT_EQ(row.fraction, shares[first]) << "candidate " << first;
    }
  }
}

TEST(SplitTable, FromWeightsRequiresSortedDistinctPairs) {
  RestrictedProblem problem;
  problem.add_commodity(1.0);
  problem.add_candidate(Path{2, 3, {5}});
  problem.add_commodity(1.0);
  problem.add_candidate(Path{0, 1, {0}});
  const std::vector<double> weights = {1.0, 1.0};
  EXPECT_THROW(SplitTable::from_weights(problem, weights), CheckError);
  RestrictedProblem repeated;
  for (int j = 0; j < 2; ++j) {
    repeated.add_commodity(1.0);
    repeated.add_candidate(Path{0, 1, {0}});
  }
  EXPECT_THROW(SplitTable::from_weights(repeated, weights), CheckError);
}

TEST(Router, EmptyDemandIsZero) {
  const Graph g = make_grid(2, 2);
  PathSystem ps;
  const SemiObliviousRouter router(g, ps);
  const FractionalRoute route = router.route_fractional(Demand{});
  EXPECT_DOUBLE_EQ(route.congestion, 0.0);
}

TEST(Router, ExactAndMwuBackendsAgree) {
  const Graph g = make_torus(4, 4);
  RaeckeOptions racke;
  racke.seed = 5;
  const RaeckeRouting oblivious(g, racke);
  SampleOptions sample;
  sample.k = 4;
  const PathSystem ps = sample_path_system_all_pairs(oblivious, sample, 6);
  Rng rng(7);
  const Demand d = random_permutation_demand(g, rng);

  RouterOptions exact_options;
  exact_options.backend = LpBackend::kExact;
  RouterOptions mwu_options;
  mwu_options.backend = LpBackend::kMwu;
  mwu_options.epsilon = 0.05;

  const double exact =
      SemiObliviousRouter(g, ps, exact_options).route_fractional(d).congestion;
  const double mwu =
      SemiObliviousRouter(g, ps, mwu_options).route_fractional(d).congestion;
  EXPECT_LE(exact, mwu + 1e-6);
  EXPECT_LE(mwu, exact * 1.06 + 1e-6);
}

TEST(Router, MoreCandidatesNeverHurt) {
  // Monotonicity: adding paths can only lower the LP optimum.
  const Graph g = make_hypercube(4);
  const ValiantHypercube routing(g, 4);
  Rng rng(8);
  const Demand d = random_permutation_demand(g, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    SampleOptions sample;
    sample.k = k;
    // Same seed: k-sample is a superset-in-distribution... use nested
    // construction instead: sample k once and reuse prefixes.
    const PathSystem ps =
        sample_path_system_for_demand(routing, d, sample, 99);
    const double congestion =
        SemiObliviousRouter(g, ps).route_fractional(d).congestion;
    // Not strictly monotone across independent samples, but with the same
    // seed the first k paths coincide (same per-pair stream), so the
    // candidate sets are nested and the optimum is monotone.
    EXPECT_LE(congestion, prev + 1e-9);
    prev = congestion;
  }
}

TEST(RouterIntegral, RoutesEveryPacketOnCandidate) {
  const Graph g = make_hypercube(4);
  const ValiantHypercube routing(g, 4);
  Rng rng(9);
  const Demand d = random_permutation_demand(g, rng);
  SampleOptions sample;
  sample.k = 4;
  const PathSystem ps = sample_path_system_for_demand(routing, d, sample, 10);
  const SemiObliviousRouter router(g, ps);
  Rng round_rng(11);
  const IntegralRoute route = router.route_integral(d, round_rng);
  EXPECT_EQ(route.packet_paths.size(),
            static_cast<std::size_t>(std::llround(d.total())));
  for (const Path& p : route.packet_paths) {
    EXPECT_TRUE(is_simple_path(g, p));
  }
  // Integral congestion within rounding distance of the fractional one.
  const FractionalRoute frac = router.route_fractional(d);
  EXPECT_GE(route.congestion + 1e-9, frac.congestion);
  EXPECT_LE(route.congestion,
            2 * frac.congestion + 2 * std::log2(g.num_edges()) + 2);
}

TEST(RouterIntegral, LocalSearchImprovesBadRounding) {
  // Two commodities, each with a private path and a shared path; rounding
  // onto the shared path must be fixed by local search.
  Graph g(4);
  const EdgeId shared = g.add_edge(0, 1);
  const EdgeId a = g.add_edge(0, 2);
  const EdgeId a2 = g.add_edge(2, 1);
  const EdgeId b = g.add_edge(0, 3);
  const EdgeId b2 = g.add_edge(3, 1);
  PathSystem ps;
  ps.add(Path{0, 1, {shared}});
  ps.add(Path{0, 1, {a, a2}});
  ps.add(Path{0, 1, {b, b2}});
  Demand d;
  d.add(0, 1, 3.0);
  const SemiObliviousRouter router(g, ps);
  Rng rng(12);
  const IntegralRoute route = router.route_integral(d, rng);
  // Optimal integral: one packet per route → congestion 1.
  EXPECT_NEAR(route.congestion, 1.0, 1e-9);
}

TEST(RouterIntegral, RejectsFractionalDemand) {
  const Graph g = make_grid(2, 2);
  PathSystem ps;
  ps.add(Path{0, 1, {0}});
  Demand d;
  d.add(0, 1, 0.5);
  const SemiObliviousRouter router(g, ps);
  Rng rng(13);
  EXPECT_THROW(router.route_integral(d, rng), CheckError);
}

TEST(Evaluate, RatioAgainstOptIsSane) {
  const Graph g = make_hypercube(5);
  const ValiantHypercube routing(g, 5);
  SampleOptions sample;
  sample.k = 8;
  const PathSystem ps = sample_path_system_all_pairs(routing, sample, 14);
  Rng rng(15);
  const Demand d = random_permutation_demand(g, rng);
  const CompetitiveReport report = evaluate_path_system(g, ps, d);
  EXPECT_GE(report.ratio, 1.0 - 0.1);  // can't beat OPT (mod ε slack)
  EXPECT_LT(report.ratio, 10.0);       // k = 8 samples are plenty here
  EXPECT_LE(report.opt_lower, report.opt + 1e-9);
}

TEST(Evaluate, EmptyDemandRatioOne) {
  const Graph g = make_grid(2, 2);
  const CompetitiveReport r = competitive_ratio(g, 0.0, Demand{});
  EXPECT_DOUBLE_EQ(r.ratio, 1.0);
}

TEST(Attribution, DiamondSplitsAttributeExactly) {
  Graph g(4);
  const EdgeId e0 = g.add_edge(0, 1);
  const EdgeId e1 = g.add_edge(0, 2);
  const EdgeId e2 = g.add_edge(1, 3);
  const EdgeId e3 = g.add_edge(2, 3);
  PathSystem ps;
  ps.add(Path{0, 3, {e0, e2}});
  ps.add(Path{0, 3, {e1, e3}});
  Demand d;
  d.add(0, 3, 1.0);
  const SemiObliviousRouter router(g, ps);
  const FractionalRoute route = router.route_fractional(d);
  const CongestionAttribution a = router.attribute(route);
  // All four unit-capacity edges carry the half split.
  EXPECT_EQ(a.loaded_links, 4u);
  ASSERT_EQ(a.links.size(), 4u);
  EXPECT_NEAR(a.max_utilization, route.congestion, 1e-9);
  for (const LinkAttribution& link : a.links) {
    EXPECT_NEAR(link.utilization, 0.5, 1e-6);
    ASSERT_EQ(link.contributors.size(), 1u);
    EXPECT_EQ(link.contributors[0].src, 0u);
    EXPECT_EQ(link.contributors[0].dst, 3u);
    EXPECT_NEAR(link.contributors[0].share, link.utilization, 1e-12);
  }
}

TEST(Attribution, SharesSumToUtilizationPerLink) {
  const Graph g = make_grid(3, 3);
  const KspRouting routing(g, 4);
  SampleOptions sample;
  sample.k = 3;
  const PathSystem ps = sample_path_system_all_pairs(routing, sample, 7);
  const Demand d = gravity_demand(g, 12.0);
  const SemiObliviousRouter router(g, ps);
  const FractionalRoute route = router.route_fractional(d);
  const CongestionAttribution a = router.attribute(route, 5);
  ASSERT_FALSE(a.links.empty());
  EXPECT_LE(a.links.size(), 5u);
  EXPECT_GE(a.loaded_links, a.links.size());
  EXPECT_NEAR(a.max_utilization, route.congestion, 1e-9);
  double previous = a.links.front().utilization;
  for (const LinkAttribution& link : a.links) {
    EXPECT_LE(link.utilization, previous + 1e-12);  // sorted, heaviest first
    previous = link.utilization;
    double share_sum = 0;
    double load_sum = 0;
    for (const PathContribution& c : link.contributors) {
      EXPECT_GT(c.load, 0.0);
      share_sum += c.share;
      load_sum += c.load;
    }
    EXPECT_NEAR(share_sum, link.utilization, 1e-9);
    EXPECT_NEAR(load_sum, link.load, 1e-9);
    // Contributors sorted by load, heaviest first.
    for (std::size_t i = 1; i < link.contributors.size(); ++i) {
      EXPECT_LE(link.contributors[i].load,
                link.contributors[i - 1].load + 1e-12);
    }
  }
}

TEST(Attribution, JsonShapeCarriesShareInvariant) {
  const Graph g = make_grid(3, 3);
  const KspRouting routing(g, 4);
  SampleOptions sample;
  sample.k = 2;
  const PathSystem ps = sample_path_system_all_pairs(routing, sample, 9);
  const Demand d = gravity_demand(g, 8.0);
  const SemiObliviousRouter router(g, ps);
  const FractionalRoute route = router.route_fractional(d);
  const telemetry::JsonValue doc =
      attribution_to_json(router.attribute(route, 4));
  ASSERT_TRUE(doc.has("links"));
  ASSERT_TRUE(doc.has("max_utilization"));
  ASSERT_TRUE(doc.has("loaded_links"));
  const telemetry::JsonValue& links = doc.at("links");
  ASSERT_GT(links.size(), 0u);
  for (std::size_t i = 0; i < links.size(); ++i) {
    const telemetry::JsonValue& link = links.at(i);
    double share_sum = 0;
    const telemetry::JsonValue& contributors = link.at("contributors");
    for (std::size_t c = 0; c < contributors.size(); ++c) {
      share_sum += contributors.at(c).at("share").as_number();
    }
    EXPECT_NEAR(share_sum, link.at("utilization").as_number(), 1e-6);
  }
}

}  // namespace
}  // namespace sor
