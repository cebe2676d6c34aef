// Tests for the completion-time router (Lemmas 2.8/2.9): geometric
// hop-scale path systems, scale selection, and the cong+dil advantage over
// congestion-only routing on deep graphs.

#include <gtest/gtest.h>

#include <set>

#include "core/completion.hpp"
#include "core/sampler.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "graph/search.hpp"
#include "oblivious/hop_bounded_trees.hpp"
#include "oblivious/racke_routing.hpp"

namespace sor {
namespace {

std::vector<VertexPair> grid_corner_pairs() {
  return {VertexPair::canonical(0, 24), VertexPair::canonical(4, 20),
          VertexPair::canonical(0, 4), VertexPair::canonical(20, 24)};
}

TEST(Completion, ScalesAreGeometric) {
  const Graph g = make_grid(5, 5);
  const auto pairs = grid_corner_pairs();
  CompletionOptions options;
  options.k = 3;
  options.seed = 1;
  const CompletionTimeRouter router(g, pairs, options);
  ASSERT_GE(router.num_scales(), 2u);
  for (std::size_t j = 0; j + 1 < router.num_scales(); ++j) {
    EXPECT_EQ(router.scale_hop_bound(j + 1), 2 * router.scale_hop_bound(j));
  }
  EXPECT_GE(router.scale_hop_bound(router.num_scales() - 1),
            g.num_vertices());
}

TEST(Completion, SubsystemsRespectHopBounds) {
  const Graph g = make_grid(5, 5);
  const auto pairs = grid_corner_pairs();
  CompletionOptions options;
  options.k = 3;
  options.seed = 2;
  const CompletionTimeRouter router(g, pairs, options);
  for (std::size_t j = 0; j < router.num_scales(); ++j) {
    const PathSystem& system = router.scale_system(j);
    for (const VertexPair& pair : system.pairs()) {
      const std::uint32_t dist = bfs(g, pair.a).hops[pair.b];
      for (const PathView p : system.paths(pair.a, pair.b)) {
        EXPECT_LE(p.hops(),
                  std::max(router.scale_hop_bound(j), dist));
      }
    }
  }
}

TEST(Completion, CombinedSystemSparsityIsKTimesScales) {
  const Graph g = make_grid(4, 4);
  const std::vector<VertexPair> pairs{VertexPair::canonical(0, 15)};
  CompletionOptions options;
  options.k = 2;
  options.seed = 3;
  const CompletionTimeRouter router(g, pairs, options);
  const PathSystem combined = router.combined_system();
  EXPECT_EQ(combined.total_paths(), 2u * router.num_scales());
}

TEST(Completion, RouteReturnsBestScale) {
  const Graph g = make_grid(5, 5);
  const auto pairs = grid_corner_pairs();
  CompletionOptions options;
  options.k = 4;
  options.seed = 4;
  const CompletionTimeRouter router(g, pairs, options);
  Demand d;
  d.add(0, 24, 1.0);
  d.add(4, 20, 1.0);
  const auto result = router.route(d);
  EXPECT_GT(result.congestion, 0.0);
  EXPECT_GE(result.dilation, 8u);  // corner-to-corner needs >= 8 hops
  EXPECT_DOUBLE_EQ(result.objective,
                   result.congestion + static_cast<double>(result.dilation));
  EXPECT_LT(result.best_scale, router.num_scales());
}

TEST(Completion, HopScalesBeatCongestionOnlyOnDeepGraphs) {
  // Path-of-cliques: congestion-optimal routing happily detours through
  // the whole chain; completion-time routing must keep dilation at the
  // distance scale. Compare cong+dil of the completion router against a
  // congestion-only router over a Räcke sample.
  const Graph g = make_path_of_cliques(6, 5);  // 30 vertices, deep
  std::vector<VertexPair> pairs;
  Demand d;
  // Neighbour-clique traffic: short optimal routes exist.
  for (std::uint32_t c = 0; c + 1 < 6; ++c) {
    const Vertex a = c * 5;          // first vertex of clique c
    const Vertex b = (c + 1) * 5;    // first vertex of clique c+1
    pairs.push_back(VertexPair::canonical(a, b));
    d.add(a, b, 1.0);
  }

  CompletionOptions options;
  options.k = 4;
  options.seed = 5;
  const CompletionTimeRouter completion(g, pairs, options);
  const auto ct = completion.route(d);

  // Completion-time routing keeps dilation near the actual distances
  // (inter-clique distance <= 3 hops; scale 4 or 8 suffices).
  EXPECT_LE(ct.dilation, 16u);
  EXPECT_LE(ct.objective, 24.0);
}

TEST(Completion, ThrowsOnEmptyDemandRouting) {
  const Graph g = make_grid(3, 3);
  const std::vector<VertexPair> pairs{VertexPair::canonical(0, 8)};
  CompletionOptions options;
  options.k = 2;
  const CompletionTimeRouter router(g, pairs, options);
  const auto result = router.route(Demand{});
  // Empty demand: congestion 0, dilation 0, objective 0 at some scale.
  EXPECT_DOUBLE_EQ(result.objective, 0.0);
}

TEST(HopBoundedTrees, RespectsBudgetAndValidity) {
  const Graph g = make_grid(5, 5);
  for (std::uint32_t h : {2u, 6u, 12u}) {
    const HopBoundedTreeRouting routing(g, h, 0, 3);
    Rng rng(40 + h);
    for (int i = 0; i < 40; ++i) {
      Vertex s = 0, t = 0;
      while (s == t) {
        s = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
        t = static_cast<Vertex>(rng.next_u64(g.num_vertices()));
      }
      const Path p = routing.sample_path(s, t, rng);
      EXPECT_TRUE(is_simple_path(g, p));
      const std::uint32_t dist = bfs(g, s).hops[t];
      EXPECT_LE(p.hops(), std::max(h, dist));
    }
  }
}

TEST(HopBoundedTrees, LargeBudgetUsesTreeDiversity) {
  const Graph g = make_torus(4, 4);
  const HopBoundedTreeRouting routing(g, 16, 6, 5);
  EXPECT_EQ(routing.num_trees(), 6u);
  Rng rng(6);
  std::set<std::vector<EdgeId>> distinct;
  for (int i = 0; i < 60; ++i) {
    distinct.insert(routing.sample_path(0, 10, rng).edges);
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Completion, BothSourcesProduceValidRouters) {
  const Graph g = make_path_of_cliques(4, 4);
  std::vector<VertexPair> pairs;
  Demand d;
  for (std::uint32_t c = 0; c + 1 < 4; ++c) {
    pairs.push_back(VertexPair::canonical(c * 4, (c + 1) * 4));
    d.add(c * 4, (c + 1) * 4, 1.0);
  }
  for (const auto source : {CompletionOptions::Source::kBallValiant,
                            CompletionOptions::Source::kBoundedTrees}) {
    CompletionOptions options;
    options.k = 3;
    options.seed = 7;
    options.source = source;
    const CompletionTimeRouter router(g, pairs, options);
    const auto result = router.route(d);
    EXPECT_GT(result.congestion, 0.0);
    EXPECT_LE(result.dilation, 2u * g.num_vertices());
    EXPECT_LE(result.objective, 30.0);
  }
}

}  // namespace
}  // namespace sor
