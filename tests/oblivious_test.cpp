// Unit tests for src/oblivious: every routing implementation produces
// valid simple paths with the distribution/shape properties its contract
// promises (Valiant O(1) expected congestion on permutations, KSP ordering
// by cost, hop-constrained dilation bounds, ...).

#include <gtest/gtest.h>

#include <cmath>

#include "core/path_system.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "graph/search.hpp"
#include "oblivious/hop_constrained.hpp"
#include "oblivious/ksp.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/random_walk.hpp"
#include "oblivious/routing.hpp"
#include "oblivious/shortest_path.hpp"
#include "oblivious/valiant.hpp"

namespace sor {
namespace {

void expect_valid_samples(const ObliviousRouting& routing, int trials,
                          std::uint64_t seed) {
  const Graph& g = routing.graph();
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    Vertex s = 0, t = 0;
    while (s == t) {
      s = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
      t = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
    }
    const Path p = routing.sample_path(s, t, rng);
    ASSERT_TRUE(is_simple_path(g, p)) << routing.name();
    ASSERT_EQ(p.src, s);
    ASSERT_EQ(p.dst, t);
    ASSERT_GE(p.hops(), 1u);
  }
}

TEST(ShortestPathRouting, ProducesShortestPaths) {
  const Graph g = make_grid(5, 5);
  const ShortestPathRouting routing(g);
  expect_valid_samples(routing, 50, 1);
  Rng rng(2);
  const Path p = routing.sample_path(0, 24, rng);
  EXPECT_EQ(p.hops(), 8u);  // manhattan distance corner-to-corner
}

TEST(ShortestPathRouting, IsDeterministic) {
  const Graph g = make_hypercube(4);
  const ShortestPathRouting routing(g);
  Rng a(1), b(999);
  EXPECT_EQ(routing.sample_path(3, 12, a), routing.sample_path(3, 12, b));
}

TEST(ShortestPathRouting, InverseCapacityMetricAvoidsThinEdges) {
  // Triangle: direct edge has tiny capacity; detour has fat edges.
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 10.0);
  g.add_edge(0, 2, 0.05);
  const ShortestPathRouting routing(
      g, ShortestPathRouting::Metric::kInverseCapacity);
  Rng rng(1);
  EXPECT_EQ(routing.sample_path(0, 2, rng).hops(), 2u);
}

TEST(ValiantHypercube, PathsValidAndBounded) {
  const Graph g = make_hypercube(5);
  const ValiantHypercube routing(g, 5);
  expect_valid_samples(routing, 100, 3);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const Path p = routing.sample_path(0, 31, rng);
    EXPECT_LE(p.hops(), 10u);  // two greedy legs of <= d hops
  }
}

TEST(ValiantHypercube, BitFixingIsGreedy) {
  const Graph g = make_hypercube(4);
  const ValiantHypercube routing(g, 4);
  const Path p = routing.bit_fixing_path(0b0000, 0b1011);
  EXPECT_EQ(p.hops(), 3u);  // exactly the Hamming distance
}

TEST(ValiantHypercube, RejectsNonHypercube) {
  const Graph g = make_grid(4, 4);
  EXPECT_THROW(ValiantHypercube(g, 4), CheckError);
}

TEST(ValiantHypercube, PermutationCongestionIsConstant) {
  // The Valiant guarantee: expected per-edge congestion on a permutation
  // demand is O(1). Empirically the max over edges stays small.
  const std::uint32_t d = 6;
  const Graph g = make_hypercube(d);
  const ValiantHypercube routing(g, d);
  Rng rng(5);
  const Demand demand = bit_complement_demand(d);
  const double congestion = oblivious_congestion(routing, demand, 32, rng);
  // Bit-complement is the classic killer for deterministic routing; the
  // randomized Valiant routing keeps it at a small constant.
  EXPECT_LT(congestion, 6.0);
}

TEST(ValiantHypercube, BeatsDeterministicOnBitComplement) {
  const std::uint32_t d = 6;
  const Graph g = make_hypercube(d);
  const ValiantHypercube valiant(g, d);
  const ShortestPathRouting deterministic(g);
  Rng rng(6);
  const Demand demand = bit_complement_demand(d);
  const double valiant_cong = oblivious_congestion(valiant, demand, 32, rng);
  const double det_cong = oblivious_congestion(deterministic, demand, 1, rng);
  EXPECT_GT(det_cong, 2.0 * valiant_cong);
}

TEST(RaeckeRouting, ValidPathsOnIrregularGraph) {
  const Graph g = make_erdos_renyi(40, 0.15, 17);
  RaeckeOptions options;
  options.seed = 7;
  const RaeckeRouting routing(g, options);
  expect_valid_samples(routing, 100, 8);
}

TEST(KspPaths, OrderedDistinctAndCorrectCount) {
  const Graph g = make_grid(4, 4);
  const std::vector<double> unit(g.num_edges(), 1.0);
  const auto paths = k_shortest_paths(g, 0, 15, 5, unit);
  ASSERT_EQ(paths.size(), 5u);
  double prev = 0;
  std::set<std::vector<EdgeId>> seen;
  for (const Path& p : paths) {
    EXPECT_TRUE(is_simple_path(g, p));
    EXPECT_EQ(p.src, 0u);
    EXPECT_EQ(p.dst, 15u);
    const double cost = path_cost(g, p, unit);
    EXPECT_GE(cost, prev);
    prev = cost;
    EXPECT_TRUE(seen.insert(p.edges).second) << "duplicate path";
  }
  EXPECT_EQ(paths[0].hops(), 6u);  // shortest corner-to-corner
}

TEST(KspPaths, SpurTiesFollowVertexOrder) {
  // On a unit torus, equal-cost spur paths abound, and which one a spur
  // search returns decides the later candidates: the seventh path here is
  // the one spur searches that pop equal distances in vertex order give.
  const Graph g = make_torus(6, 6);
  const std::vector<double> unit(g.num_edges(), 1.0);
  const std::vector<std::vector<EdgeId>> expected{
      {0, 2},        {0, 3, 14, 5}, {0, 63, 62, 65}, {1, 12, 3, 2},
      {1, 12, 14, 5}, {10, 8, 6, 4}, {61, 60, 63, 2},
  };
  const std::vector<Path> paths = k_shortest_paths(g, 0, 2, 7, unit);
  ASSERT_EQ(paths.size(), expected.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].edges, expected[i]) << "path " << i;
  }
}

TEST(KspPaths, ExhaustsSmallGraphs) {
  // Path graph has exactly one simple 0→2 path.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<double> unit(g.num_edges(), 1.0);
  EXPECT_EQ(k_shortest_paths(g, 0, 2, 10, unit).size(), 1u);
  // Diamond has exactly two.
  Graph h(4);
  h.add_edge(0, 1);
  h.add_edge(0, 2);
  h.add_edge(1, 3);
  h.add_edge(2, 3);
  EXPECT_EQ(k_shortest_paths(h, 0, 3, 10, std::vector<double>(4, 1.0)).size(),
            2u);
}

TEST(KspRouting, SamplesFromCandidateSet) {
  const Graph g = make_torus(3, 3);
  const KspRouting routing(g, 4);
  expect_valid_samples(routing, 100, 9);
  // All samples are among the cached candidates.
  Rng rng(10);
  const auto& cands = routing.candidates(0, 4);
  for (int i = 0; i < 20; ++i) {
    const Path p = routing.sample_path(0, 4, rng);
    bool found = false;
    for (const Path& c : cands) {
      if (p == c || p == reversed(c)) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(RandomWalkRouting, AlwaysArrives) {
  const Graph g = make_grid(4, 4);
  const RandomWalkRouting routing(g, 10);  // tiny cap forces the fallback
  expect_valid_samples(routing, 100, 11);
}

TEST(HopConstrained, RespectsHopBudget) {
  const Graph g = make_grid(5, 5);
  for (std::uint32_t h : {2u, 4u, 8u, 16u}) {
    const HopConstrainedRouting routing(g, h);
    Rng rng(12 + h);
    for (int i = 0; i < 50; ++i) {
      Vertex s = 0, t = 0;
      while (s == t) {
        s = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
        t = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
      }
      const Path p = routing.sample_path(s, t, rng);
      const std::uint32_t dist = bfs(g, s).hops[t];
      EXPECT_LE(p.hops(), std::max(h, dist));
      EXPECT_TRUE(is_simple_path(g, p));
    }
  }
}

TEST(HopConstrained, LargeBudgetSpreadsLoad) {
  // With the budget at the diameter, the intermediate pool covers many
  // vertices, so repeated samples should produce multiple distinct paths.
  const Graph g = make_torus(4, 4);
  const HopConstrainedRouting routing(g, 8);
  Rng rng(13);
  std::set<std::vector<EdgeId>> distinct;
  for (int i = 0; i < 40; ++i) {
    distinct.insert(routing.sample_path(0, 10, rng).edges);
  }
  EXPECT_GT(distinct.size(), 3u);
}

TEST(ObliviousHelpers, RouteDemandLoadMatchesTotal) {
  const Graph g = make_grid(3, 3);
  const ShortestPathRouting routing(g);
  Demand d;
  d.add(0, 8, 2.0);
  Rng rng(14);
  const EdgeLoad load = oblivious_route_demand(routing, d, 4, rng);
  // Deterministic routing: all 4 samples identical, load = demand on the
  // one path, total load = 2.0 × hops.
  double total = 0;
  for (double x : load) total += x;
  EXPECT_NEAR(total, 2.0 * 4.0, 1e-9);
}

}  // namespace
}  // namespace sor
