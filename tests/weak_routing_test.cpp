// Tests for the Section 5.3 proof machinery: the weak-routing deletion
// process and the Lemma 5.8 weak→strong halving reduction — including the
// paper's headline statistical property (a (log n)-sample survives the
// process routing at least half of a permutation demand).

#include <gtest/gtest.h>

#include <cmath>

#include "core/sampler.hpp"
#include "core/weak_routing.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "oblivious/valiant.hpp"
#include "util/rng.hpp"

namespace sor {
namespace {

RestrictedProblem problem_from(const Graph& g, const PathSystem& ps,
                               const Demand& d) {
  RestrictedProblem problem;
  problem.graph = &g;
  for (const Commodity& c : d.commodities()) append_commodity(problem, c, ps);
  return problem;
}

TEST(WeakRouting, NoDeletionsWhenThresholdHigh) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  PathSystem ps;
  ps.add(Path{0, 2, {e01, e12}});
  Demand d;
  d.add(0, 2, 1.0);
  const WeakRoutingResult r =
      weak_routing_process(problem_from(g, ps, d), 10.0);
  EXPECT_TRUE(r.deleted_edges.empty());
  EXPECT_DOUBLE_EQ(r.routed_amount, 1.0);
  EXPECT_DOUBLE_EQ(r.total_demand, 1.0);
  EXPECT_DOUBLE_EQ(r.congestion, 1.0);
}

TEST(WeakRouting, DeletesOvercongestedEdgeInOrder) {
  // Two commodities forced over the same first edge with threshold below
  // their combined share → edge 0 deleted, everything through it zeroed.
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  PathSystem ps;
  ps.add(Path{0, 1, {e01}});
  ps.add(Path{0, 2, {e01, e12}});
  Demand d;
  d.add(0, 1, 1.0);
  d.add(0, 2, 1.0);
  const WeakRoutingResult r =
      weak_routing_process(problem_from(g, ps, d), 1.5);
  ASSERT_EQ(r.deleted_edges.size(), 1u);
  EXPECT_EQ(r.deleted_edges[0], e01);
  EXPECT_DOUBLE_EQ(r.routed_amount, 0.0);  // both paths crossed e01
  EXPECT_DOUBLE_EQ(r.congestion, 0.0);
}

TEST(WeakRouting, CongestionNeverExceedsThreshold) {
  const Graph g = make_hypercube(5);
  const ValiantHypercube routing(g, 5);
  Rng rng(1);
  const Demand d = random_permutation_demand(g, rng);
  SampleOptions sample;
  sample.k = 4;
  const PathSystem ps = sample_path_system_for_demand(routing, d, sample, 2);
  for (double threshold : {0.3, 0.7, 1.5, 3.0}) {
    const WeakRoutingResult r =
        weak_routing_process(problem_from(g, ps, d), threshold);
    EXPECT_LE(r.congestion, threshold + 1e-9);
    EXPECT_LE(r.routed_amount, r.total_demand + 1e-9);
  }
}

TEST(WeakRouting, SweepUsesFixedEdgeOrder) {
  // Earlier edges are processed first: construct loads so that deleting
  // the early edge relieves the later one.
  Graph g(4);
  const EdgeId e0 = g.add_edge(0, 1);  // early
  const EdgeId e1 = g.add_edge(1, 2);  // later
  const EdgeId e2 = g.add_edge(0, 3);
  const EdgeId e3 = g.add_edge(3, 2);
  PathSystem ps;
  ps.add(Path{0, 2, {e0, e1}});
  ps.add(Path{0, 2, {e2, e3}});
  Demand d;
  d.add(0, 2, 3.0);  // 1.5 per candidate
  // Threshold 1.4: edge e0 congested (1.5 > 1.4) → first path deleted;
  // the second path (1.5 on e2/e3) is also over threshold and gets cut
  // when its first edge is processed... e2 load 1.5 > 1.4 → deleted too.
  const WeakRoutingResult r1 =
      weak_routing_process(problem_from(g, ps, d), 1.4);
  EXPECT_EQ(r1.deleted_edges.size(), 2u);
  EXPECT_EQ(r1.deleted_edges[0], e0);
  EXPECT_EQ(r1.deleted_edges[1], e2);
  // Threshold 1.6: nothing deleted.
  const WeakRoutingResult r2 =
      weak_routing_process(problem_from(g, ps, d), 1.6);
  EXPECT_TRUE(r2.deleted_edges.empty());
  EXPECT_DOUBLE_EQ(r2.routed_amount, 3.0);
}

TEST(WeakRouting, MainLemmaStatistics) {
  // The paper's core claim, tested statistically: on the hypercube with
  // k = O(log n) Valiant samples and threshold O(1)·k-ish, the process
  // routes at least half of a random permutation demand, for every one of
  // several random demands.
  const std::uint32_t dim = 6;
  const Graph g = make_hypercube(dim);
  const ValiantHypercube routing(g, dim);
  const std::size_t k = 2 * dim;  // 2·log2(n)
  const double threshold = 3.0;   // O(1), the oblivious congestion scale

  SampleOptions sample;
  sample.k = k;
  const PathSystem ps = sample_path_system_all_pairs(routing, sample, 3);

  int failures = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng(100 + trial);
    const Demand d = random_permutation_demand(g, rng);
    const WeakRoutingResult r =
        weak_routing_process(problem_from(g, ps, d), threshold);
    if (r.routed_amount < r.total_demand / 2) ++failures;
  }
  EXPECT_EQ(failures, 0);
}

TEST(WeakRouting, SparseSamplesFailMoreOften) {
  // Contrast: with k = 1 the same process at the same threshold loses
  // far more demand (the deterministic-single-path regime).
  const std::uint32_t dim = 6;
  const Graph g = make_hypercube(dim);
  const ValiantHypercube routing(g, dim);
  const double threshold = 3.0;

  auto routed_fraction = [&](std::size_t k) {
    SampleOptions sample;
    sample.k = k;
    const PathSystem ps = sample_path_system_all_pairs(routing, sample, 4);
    double total = 0;
    for (int trial = 0; trial < 5; ++trial) {
      Rng rng(200 + trial);
      const Demand d = random_permutation_demand(g, rng);
      const WeakRoutingResult r =
          weak_routing_process(problem_from(g, ps, d), threshold);
      total += r.routed_amount / r.total_demand;
    }
    return total / 5;
  };

  EXPECT_GT(routed_fraction(12), routed_fraction(1));
}

TEST(Halving, RoutesFullDemandWithBoundedCongestion) {
  const std::uint32_t dim = 5;
  const Graph g = make_hypercube(dim);
  const ValiantHypercube routing(g, dim);
  SampleOptions sample;
  sample.k = 2 * dim;
  const PathSystem ps = sample_path_system_all_pairs(routing, sample, 5);
  Rng rng(6);
  const Demand d = random_permutation_demand(g, rng);

  const double threshold = 3.0;
  const HalvingRouteResult r = route_by_halving(g, ps, d, threshold);
  EXPECT_DOUBLE_EQ(r.force_routed, 0.0);
  // Each round adds <= 4·threshold; rounds = O(log |D|).
  EXPECT_LE(r.congestion,
            4 * threshold * (std::log2(d.total()) + 2));
  EXPECT_GE(r.rounds, 1u);
}

TEST(Halving, SingleRoundWhenEverythingSurvives) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  const EdgeId e12 = g.add_edge(1, 2);
  PathSystem ps;
  ps.add(Path{0, 2, {e01, e12}});
  Demand d;
  d.add(0, 2, 1.0);
  const HalvingRouteResult r = route_by_halving(g, ps, d, 5.0);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_DOUBLE_EQ(r.congestion, 1.0);
  EXPECT_DOUBLE_EQ(r.force_routed, 0.0);
}

TEST(Halving, ForceRoutesWhenSystemIsHopeless) {
  // Single shared edge, tiny threshold: nothing ever survives, the
  // router must fall back to force-routing.
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1);
  PathSystem ps;
  ps.add(Path{0, 1, {e}});
  Demand d;
  d.add(0, 1, 10.0);
  const HalvingRouteResult r = route_by_halving(g, ps, d, 0.5, 3);
  EXPECT_DOUBLE_EQ(r.force_routed, 10.0);
  EXPECT_DOUBLE_EQ(r.congestion, 10.0);
}

}  // namespace
}  // namespace sor
