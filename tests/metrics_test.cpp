// Tests for the analysis utilities added on top of the core pipeline:
// exact Räcke mixture loads, path-overlap diversity, and the greedy
// online integral router.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/path_system.hpp"
#include "core/oracle.hpp"
#include "core/router.hpp"
#include "core/sampler.hpp"
#include "demand/generators.hpp"
#include "flow/mcf.hpp"
#include "graph/generators.hpp"
#include "graph/search.hpp"
#include "oblivious/ksp.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/valiant.hpp"
#include "tree/racke.hpp"

namespace sor {
namespace {

TEST(ExactMixtureLoad, MatchesMonteCarloEstimate) {
  const Graph g = make_torus(4, 4);
  RaeckeOptions options;
  options.seed = 1;
  const RaeckeEnsemble ensemble(g, options);

  Rng rng(2);
  const Demand demand = random_permutation_demand(g, rng);
  std::vector<std::tuple<Vertex, Vertex, double>> commodities;
  for (const Commodity& c : demand.commodities()) {
    commodities.emplace_back(c.src, c.dst, c.amount);
  }
  const std::vector<double> exact = exact_mixture_load(ensemble, commodities);

  // Monte Carlo with many samples converges to the exact load.
  RaeckeRouting routing(g, options);
  Rng mc_rng(3);
  const EdgeLoad mc = oblivious_route_demand(routing, demand, 512, mc_rng);
  // The two ensembles are built with the same seed → identical trees.
  double max_error = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    max_error = std::max(max_error, std::abs(exact[e] - mc[e]));
  }
  EXPECT_LT(max_error, 0.35);  // MC noise at 512 samples
}

TEST(ExactMixtureLoad, TotalLoadEqualsWeightedPathLengths) {
  const Graph g = make_grid(3, 3);
  RaeckeOptions options;
  options.seed = 4;
  options.num_trees = 3;
  const RaeckeEnsemble ensemble(g, options);
  const std::vector<std::tuple<Vertex, Vertex, double>> commodities{
      {0, 8, 2.0}};
  const auto load = exact_mixture_load(ensemble, commodities);
  double total = 0;
  for (double x : load) total += x;
  double expected = 0;
  for (std::size_t i = 0; i < ensemble.num_trees(); ++i) {
    expected += ensemble.tree_weight(i) * 2.0 *
                static_cast<double>(ensemble.tree(i).route(g, 0, 8).hops());
  }
  EXPECT_NEAR(total, expected, 1e-9);
}

TEST(Overlap, IdenticalPathsScoreOne) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  PathSystem ps;
  ps.add(Path{0, 2, {e01, e12}});
  ps.add(Path{0, 2, {e01, e12}});
  EXPECT_DOUBLE_EQ(mean_pairwise_overlap(ps), 1.0);
}

TEST(Overlap, DisjointPathsScoreZero) {
  Graph g(4);
  const EdgeId a1 = g.add_edge(0, 1);
  const EdgeId a2 = g.add_edge(1, 3);
  const EdgeId b1 = g.add_edge(0, 2);
  const EdgeId b2 = g.add_edge(2, 3);
  PathSystem ps;
  ps.add(Path{0, 3, {a1, a2}});
  ps.add(Path{0, 3, {b1, b2}});
  EXPECT_DOUBLE_EQ(mean_pairwise_overlap(ps), 0.0);
}

TEST(Overlap, SingleCandidatePairsAreSkipped) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  PathSystem ps;
  ps.add(Path{0, 1, {e01}});
  EXPECT_DOUBLE_EQ(mean_pairwise_overlap(ps), 0.0);
}

TEST(Overlap, KspIsMoreCorrelatedThanRacke) {
  // The E8/E10 mechanism: k-shortest-path candidate sets share corridor
  // edges; Räcke samples are load-diverse.
  const Graph g = make_grid(6, 6);
  const KspRouting ksp(g, 4);
  PathSystem ksp_system;
  const auto pairs = all_pairs(all_vertices(g));
  for (const VertexPair& pair : pairs) {
    for (const Path& p : ksp.candidates(pair.a, pair.b)) ksp_system.add(p);
  }
  RaeckeOptions options;
  options.seed = 5;
  const RaeckeRouting racke(g, options);
  SampleOptions sample;
  sample.k = 4;
  const PathSystem racke_system = sample_path_system(racke, pairs, sample, 6);

  EXPECT_GT(mean_pairwise_overlap(ksp_system),
            mean_pairwise_overlap(racke_system));
}

TEST(GreedyIntegral, RoutesAllPacketsDeterministically) {
  const std::uint32_t dim = 4;
  const Graph g = make_hypercube(dim);
  const ValiantHypercube routing(g, dim);
  Rng rng(8);
  const Demand demand = random_permutation_demand(g, rng);
  SampleOptions sample;
  sample.k = 4;
  const PathSystem ps =
      sample_path_system_for_demand(routing, demand, sample, 9);
  const SemiObliviousRouter router(g, ps);
  const IntegralRoute a = router.route_integral_greedy(demand);
  const IntegralRoute b = router.route_integral_greedy(demand);
  EXPECT_EQ(a.packet_paths.size(),
            static_cast<std::size_t>(std::llround(demand.total())));
  EXPECT_DOUBLE_EQ(a.congestion, b.congestion);
  for (const Path& p : a.packet_paths) EXPECT_TRUE(is_simple_path(g, p));
}

TEST(GreedyIntegral, SpreadsAcrossDisjointCandidates) {
  // 3 packets, 3 edge-disjoint candidates → greedy must use all three.
  Graph g(5);
  const EdgeId s1 = g.add_edge(0, 1);
  const EdgeId s2 = g.add_edge(1, 4);
  const EdgeId m1 = g.add_edge(0, 2);
  const EdgeId m2 = g.add_edge(2, 4);
  const EdgeId t1 = g.add_edge(0, 3);
  const EdgeId t2 = g.add_edge(3, 4);
  PathSystem ps;
  ps.add(Path{0, 4, {s1, s2}});
  ps.add(Path{0, 4, {m1, m2}});
  ps.add(Path{0, 4, {t1, t2}});
  Demand d;
  d.add(0, 4, 3.0);
  const SemiObliviousRouter router(g, ps);
  const IntegralRoute route = router.route_integral_greedy(d);
  EXPECT_DOUBLE_EQ(route.congestion, 1.0);
}

TEST(GreedyIntegral, ComparableToRoundedOnRealWorkload) {
  const std::uint32_t dim = 5;
  const Graph g = make_hypercube(dim);
  const ValiantHypercube routing(g, dim);
  Rng rng(10);
  const Demand demand = random_permutation_demand(g, rng);
  SampleOptions sample;
  sample.k = 6;
  const PathSystem ps =
      sample_path_system_for_demand(routing, demand, sample, 11);
  const SemiObliviousRouter router(g, ps);
  Rng round_rng(12);
  const IntegralRoute rounded = router.route_integral(demand, round_rng);
  const IntegralRoute greedy = router.route_integral_greedy(demand);
  // Greedy has no global view; allow 2× + 2 slack, typically it's close.
  EXPECT_LE(greedy.congestion, 2 * rounded.congestion + 2);
}

TEST(McfPaths, DecompositionCoversDemand) {
  const Graph g = make_torus(4, 4);
  Rng rng(13);
  const Demand demand = random_permutation_demand(g, rng);
  const std::vector<Commodity> commodities = demand.commodities();
  McfOptions options;
  options.record_paths = true;
  const McfResult r = min_congestion_routing(g, commodities, options);
  ASSERT_EQ(r.paths.size(), commodities.size());
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    double total = 0;
    for (const auto& [path, weight] : r.paths[j]) {
      EXPECT_GT(weight, 0.0);
      EXPECT_EQ(path.src, commodities[j].src);
      EXPECT_EQ(path.dst, commodities[j].dst);
      EXPECT_TRUE(is_simple_path(g, path));
      total += weight;
    }
    EXPECT_NEAR(total, commodities[j].amount, 1e-6);
  }
  // Reassembling the decomposition reproduces the reported load.
  EdgeLoad rebuilt = zero_load(g);
  for (const auto& per_commodity : r.paths) {
    for (const auto& [path, weight] : per_commodity) {
      add_path_load(path, weight, rebuilt);
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(rebuilt[e], r.load[e], 1e-6);
  }
}

TEST(Oracle, TopKPathsAreNearOptimalOnBuildDemand) {
  const Graph g = make_torus(4, 4);
  Rng rng(14);
  const Demand demand = random_permutation_demand(g, rng);
  const OracleSelection oracle = demand_aware_path_system(g, demand, 4);
  EXPECT_EQ(oracle.system.num_pairs(), demand.support_size());
  EXPECT_LE(oracle.system.max_sparsity(), 4u);
  const SemiObliviousRouter router(g, oracle.system);
  const double congestion = router.route_fractional(demand).congestion;
  // Keeping the 4 heaviest decomposition paths loses little.
  EXPECT_LE(congestion, oracle.mcf.congestion * 1.8 + 1e-9);
}

TEST(Oracle, KOneKeepsExactlyHeaviestPath) {
  Graph g(4);  // diamond with asymmetric capacities
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 3, 3.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  Demand d;
  d.add(0, 3, 4.0);
  const OracleSelection oracle = demand_aware_path_system(g, d, 1);
  const auto paths = oracle.system.paths(0, 3);
  ASSERT_EQ(paths.size(), 1u);
  // The fat route carries 3 of the 4 units → it is the heaviest.
  EXPECT_EQ(path_vertices(g, paths[0])[1], 1u);
}

}  // namespace
}  // namespace sor
