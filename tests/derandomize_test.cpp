// Tests for the derandomized (conditional-expectations greedy) path
// selection and the link-failure machinery.

#include <gtest/gtest.h>

#include "core/derandomize.hpp"
#include "core/failures.hpp"
#include "core/router.hpp"
#include "core/sampler.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/valiant.hpp"

namespace sor {
namespace {

TEST(Derandomize, ProducesExactlyKPerPair) {
  const Graph g = make_hypercube(4);
  const ValiantHypercube routing(g, 4);
  const auto pairs = all_pairs(all_vertices(g));
  DerandomizeOptions options;
  options.k = 3;
  options.pool = 8;
  const PathSystem ps = derandomized_path_system(routing, pairs, options);
  EXPECT_EQ(ps.num_pairs(), pairs.size());
  for (const VertexPair& pair : ps.pairs()) {
    EXPECT_EQ(ps.paths(pair.a, pair.b).size(), 3u);
    for (const PathView p : ps.paths(pair.a, pair.b)) {
      EXPECT_TRUE(is_simple_path(g, p));
    }
  }
}

TEST(Derandomize, IsDeterministic) {
  const Graph g = make_grid(4, 4);
  RaeckeOptions racke;
  racke.seed = 1;
  const RaeckeRouting routing(g, racke);
  const auto pairs = all_pairs(all_vertices(g));
  DerandomizeOptions options;
  options.k = 2;
  options.pool = 6;
  const PathSystem a = derandomized_path_system(routing, pairs, options);
  const PathSystem b = derandomized_path_system(routing, pairs, options);
  for (const VertexPair& pair : a.pairs()) {
    const auto pa = a.paths(pair.a, pair.b);
    const auto pb = b.paths(pair.a, pair.b);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  }
}

TEST(Derandomize, BeatsNaiveSamplingOnAdversarialDemand) {
  // The greedy spreads load globally, so on the bit-complement demand a
  // derandomized k=2 system should be no worse than a random k=2 sample
  // (statistically; we assert it stays within the same ballpark and is
  // much better than k=1 deterministic shortest paths).
  const std::uint32_t d = 5;
  const Graph g = make_hypercube(d);
  const ValiantHypercube routing(g, d);
  const auto pairs = all_pairs(all_vertices(g));
  const Demand demand = bit_complement_demand(d);

  DerandomizeOptions options;
  options.k = 2;
  options.pool = 12;
  const PathSystem greedy = derandomized_path_system(routing, pairs, options);
  const double greedy_cong =
      SemiObliviousRouter(g, greedy).route_fractional(demand).congestion;

  SampleOptions sample;
  sample.k = 2;
  const PathSystem random = sample_path_system(routing, pairs, sample, 5);
  const double random_cong =
      SemiObliviousRouter(g, random).route_fractional(demand).congestion;

  EXPECT_LE(greedy_cong, random_cong * 1.5 + 1e-9);
  EXPECT_LT(greedy_cong, 10.0);  // far from the Θ(√n/d) deterministic blowup
}

TEST(Failures, ScenarioKeepsConnectivityAndCount) {
  const Graph g = make_torus(4, 4);
  Rng rng(1);
  const FailureScenario scenario = random_edge_failures(g, 3, rng);
  std::size_t dead = 0;
  for (bool alive : scenario.alive) dead += !alive;
  EXPECT_EQ(dead, 3u);
  std::vector<EdgeId> edge_map;
  const Graph survivor = surviving_graph(g, scenario, &edge_map);
  EXPECT_TRUE(survivor.is_connected());
  EXPECT_EQ(survivor.num_edges(), g.num_edges() - 3);
  // Edge map is a bijection onto the survivor's ids for alive edges.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (scenario.alive[e]) {
      ASSERT_NE(edge_map[e], kInvalidEdge);
      EXPECT_EQ(survivor.edge(edge_map[e]).u, g.edge(e).u);
    } else {
      EXPECT_EQ(edge_map[e], kInvalidEdge);
    }
  }
}

TEST(Failures, SurvivingPathsDropExactlyHitPaths) {
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  const EdgeId e02 = g.add_edge(0, 2);
  const EdgeId e23 = g.add_edge(2, 3);
  PathSystem ps;
  ps.add(Path{0, 2, {e01, e12}});
  ps.add(Path{0, 2, {e02}});
  ps.add(Path{0, 3, {e02, e23}});
  FailureScenario scenario;
  scenario.alive.assign(g.num_edges(), true);
  scenario.alive[e02] = false;
  const PathSystem alive = surviving_paths(ps, scenario);
  EXPECT_EQ(alive.paths(0, 2).size(), 1u);
  EXPECT_FALSE(alive.has_pair(0, 3));
  const auto stranded = stranded_pairs(ps, scenario);
  ASSERT_EQ(stranded.size(), 1u);
  EXPECT_EQ(stranded[0].a, 0u);
  EXPECT_EQ(stranded[0].b, 3u);
}

TEST(Failures, DiverseSamplesRarelyStrand) {
  // With k = 6 Räcke samples per pair on a torus, failing 2 links should
  // strand (almost) no pair — SMORE's robustness claim in miniature.
  const Graph g = make_torus(5, 5);
  RaeckeOptions racke;
  racke.seed = 2;
  const RaeckeRouting routing(g, racke);
  SampleOptions sample;
  sample.k = 6;
  const PathSystem ps = sample_path_system_all_pairs(routing, sample, 3);
  Rng rng(4);
  std::size_t total_stranded = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const FailureScenario scenario = random_edge_failures(g, 2, rng);
    total_stranded += stranded_pairs(ps, scenario).size();
  }
  EXPECT_LE(total_stranded, 3u);
}

TEST(Failures, GomoryHuBackedLambdaSamplingMatchesDirect) {
  const Graph g = make_dumbbell(4, 3);
  const GomoryHuTree tree(g);
  RaeckeOptions racke;
  racke.seed = 5;
  const RaeckeRouting routing(g, racke);
  const std::vector<VertexPair> pairs{VertexPair::canonical(0, 4),
                                      VertexPair::canonical(1, 2)};
  SampleOptions direct;
  direct.k = 2;
  direct.lambda_cap = 4;
  SampleOptions via_tree = direct;
  via_tree.gomory_hu = &tree;
  const PathSystem a = sample_path_system(routing, pairs, direct, 6);
  const PathSystem b = sample_path_system(routing, pairs, via_tree, 6);
  for (const VertexPair& pair : a.pairs()) {
    EXPECT_EQ(a.paths(pair.a, pair.b).size(),
              b.paths(pair.a, pair.b).size());
  }
}

}  // namespace
}  // namespace sor
