// Unit tests for src/flow: Dinic max-flow / min-cut, Hopcroft–Karp,
// congestion accounting, and the Garg–Könemann max-concurrent-flow OPT
// oracle (cross-validated against hand-computable instances).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "demand/generators.hpp"
#include "flow/congestion.hpp"
#include "flow/matching.hpp"
#include "flow/maxflow.hpp"
#include "flow/mcf.hpp"
#include "graph/generators.hpp"
#include "graph/search.hpp"

namespace sor {
namespace {

TEST(MaxFlow, SingleEdge) {
  Graph g(2);
  g.add_edge(0, 1, 3.5);
  const MaxFlowResult r = max_flow(g, 0, 1);
  EXPECT_DOUBLE_EQ(r.value, 3.5);
  EXPECT_TRUE(r.source_side[0]);
  EXPECT_FALSE(r.source_side[1]);
}

TEST(MaxFlow, ParallelEdgesSum) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(min_cut_value(g, 0, 1), 3.0);
}

TEST(MaxFlow, SeriesBottleneck) {
  Graph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(min_cut_value(g, 0, 2), 2.0);
  const MaxFlowResult r = max_flow(g, 0, 2);
  // Min cut separates {0,1} from {2}.
  EXPECT_TRUE(r.source_side[0]);
  EXPECT_TRUE(r.source_side[1]);
  EXPECT_FALSE(r.source_side[2]);
}

TEST(MaxFlow, DiamondHasTwoDisjointPaths) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(min_cut_value(g, 0, 3), 2.0);
}

TEST(MaxFlow, HypercubeLeafCut) {
  // In a hypercube of dimension d, min cut between any two vertices is d.
  const Graph g = make_hypercube(4);
  EXPECT_DOUBLE_EQ(min_cut_value(g, 0, 15), 4.0);
  EXPECT_DOUBLE_EQ(min_cut_value(g, 3, 12), 4.0);
}

TEST(MaxFlow, TwoStarLeafConnectivity) {
  const TwoStarGraph ts = make_two_star(4, 7);
  // Leaf to leaf across the gadget: bottleneck is the leaf edge (1), the
  // center-to-center connectivity is the number of middles (7).
  EXPECT_DOUBLE_EQ(
      min_cut_value(ts.graph, ts.left_leaves[0], ts.right_leaves[0]), 1.0);
  EXPECT_DOUBLE_EQ(min_cut_value(ts.graph, ts.center_left, ts.center_right),
                   7.0);
}

TEST(MaxFlow, FlowConservation) {
  const Graph g = make_grid(4, 4);
  const MaxFlowResult r = max_flow(g, 0, 15);
  // Net flow out of every interior vertex is zero.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == 0 || v == 15) continue;
    double net = 0;
    for (const HalfEdge& h : g.neighbors(v)) {
      const Edge& e = g.edge(h.id);
      const double f = r.edge_flow[h.id];
      net += (e.u == v) ? -f : f;  // positive flow goes u→v
    }
    EXPECT_NEAR(net, 0.0, 1e-9) << "vertex " << v;
  }
}

TEST(MaxFlow, CutCapacityEqualsFlowValue) {
  const Graph g = make_erdos_renyi(30, 0.2, 5);
  const MaxFlowResult r = max_flow(g, 0, 29);
  double cut = 0;
  for (const Edge& e : g.edges()) {
    if (r.source_side[e.u] != r.source_side[e.v]) cut += e.capacity;
  }
  EXPECT_NEAR(cut, r.value, 1e-6);
}

TEST(MaxFlow, MinCutAtMostClamps) {
  const Graph g = make_hypercube(4);  // λ = 4 between any pair
  EXPECT_EQ(min_cut_at_most(g, 0, 15, 2), 2u);
  EXPECT_EQ(min_cut_at_most(g, 0, 15, 10), 4u);
  EXPECT_EQ(min_cut_at_most(g, 0, 15, 1), 1u);
}

TEST(Matching, PerfectMatchingOnCompleteBipartite) {
  std::vector<std::vector<std::uint32_t>> adj(4);
  for (auto& row : adj) row = {0, 1, 2, 3};
  const auto match = maximum_bipartite_matching(4, 4, adj);
  EXPECT_EQ(matching_size(match), 4u);
  std::set<std::uint32_t> used(match.begin(), match.end());
  EXPECT_EQ(used.size(), 4u);  // injective
}

TEST(Matching, RespectsStructure) {
  // Left 0 and 1 both only like right 0 → matching size 2 is impossible.
  std::vector<std::vector<std::uint32_t>> adj{{0}, {0}, {1}};
  const auto match = maximum_bipartite_matching(3, 2, adj);
  EXPECT_EQ(matching_size(match), 2u);
}

TEST(Matching, EmptyAdjacency) {
  std::vector<std::vector<std::uint32_t>> adj(3);
  const auto match = maximum_bipartite_matching(3, 3, adj);
  EXPECT_EQ(matching_size(match), 0u);
}

TEST(Matching, HallViolatingInstance) {
  // 3 lefts share 2 rights.
  std::vector<std::vector<std::uint32_t>> adj{{0, 1}, {0, 1}, {0, 1}};
  EXPECT_EQ(matching_size(maximum_bipartite_matching(3, 2, adj)), 2u);
}

TEST(Congestion, LoadAccounting) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1, 2.0);
  const EdgeId e12 = g.add_edge(1, 2, 1.0);
  EdgeLoad load = zero_load(g);
  add_path_load(Path{0, 2, {e01, e12}}, 3.0, load);
  add_path_load(Path{0, 1, {e01}}, 1.0, load);
  EXPECT_DOUBLE_EQ(load[e01], 4.0);
  EXPECT_DOUBLE_EQ(load[e12], 3.0);
  EXPECT_DOUBLE_EQ(edge_congestion(g, e01, load), 2.0);
  EXPECT_DOUBLE_EQ(edge_congestion(g, e12, load), 3.0);
  EXPECT_DOUBLE_EQ(max_congestion(g, load), 3.0);
  EXPECT_DOUBLE_EQ(total_congestion(g, load), 5.0);
}

TEST(Mcf, SinglePathInstance) {
  // Path graph: OPT congestion of routing 2 units over capacity-1 edges
  // is exactly 2.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<Commodity> demand{{0, 2, 2.0}};
  const McfResult r = min_congestion_routing(g, demand);
  EXPECT_NEAR(r.congestion, 2.0, 0.15);
  EXPECT_LE(r.lower_bound, r.congestion + 1e-9);
  EXPECT_GE(r.congestion / r.lower_bound, 1.0 - 1e-9);
}

TEST(Mcf, SplitsAcrossParallelPaths) {
  // Diamond: 1 unit from 0 to 3 splits across two 2-hop paths → 0.5.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const std::vector<Commodity> demand{{0, 3, 1.0}};
  const McfResult r = min_congestion_routing(g, demand);
  EXPECT_NEAR(r.congestion, 0.5, 0.05);
}

TEST(Mcf, RespectsCapacities) {
  // Two parallel routes with capacities 3 and 1: 4 units → congestion 1.
  Graph g(4);
  g.add_edge(0, 1, 3.0);
  g.add_edge(1, 3, 3.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<Commodity> demand{{0, 3, 4.0}};
  const McfResult r = min_congestion_routing(g, demand);
  EXPECT_NEAR(r.congestion, 1.0, 0.07);
}

TEST(Mcf, MultiCommodityCrossTraffic) {
  // Cycle C4, two crossing unit commodities (0→2 and 1→3): each splits
  // over its two 2-hop arcs; every edge carries exactly 0.5 + 0.5 = 1?
  // No: 0→2 uses edges (0,1),(1,2) and (0,3),(3,2) — each at 0.5; same
  // shape for 1→3. Every edge serves one arc of each commodity → 1.0.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const std::vector<Commodity> demand{{0, 2, 1.0}, {1, 3, 1.0}};
  const McfResult r = min_congestion_routing(g, demand);
  EXPECT_NEAR(r.congestion, 1.0, 0.07);
}

TEST(Mcf, PermutationOnHypercubeIsNearOne) {
  // Any permutation demand on the hypercube routes with congestion O(1);
  // the bit-complement permutation needs exactly ~1 with d-way splitting.
  const Graph g = make_hypercube(3);
  const Demand d = bit_complement_demand(3);
  const McfResult r = min_congestion_routing(g, d.commodities());
  // Total demand crossing the bisection bounds OPT below by 8·2/(2·8)...
  // empirically OPT ≈ 2 (weight-2 entries, d=3 disjoint 3-hop routes ≈ 2).
  EXPECT_GT(r.congestion, 0.5);
  EXPECT_LT(r.congestion, 3.0);
  EXPECT_LE(r.lower_bound, r.congestion + 1e-9);
  EXPECT_LT(r.congestion / r.lower_bound, 1.12);
}

TEST(Mcf, GapCertificateHolds) {
  Rng rng(31);
  const Graph g = make_torus(4, 4);
  const Demand d = random_permutation_demand(g, rng);
  McfOptions options;
  options.epsilon = 0.05;
  const McfResult r = min_congestion_routing(g, d.commodities(), options);
  EXPECT_GT(r.lower_bound, 0);
  EXPECT_LE(r.congestion / r.lower_bound, 1.0 + options.epsilon + 1e-9);
}

/// One solve's every output bit, generated by a reference run and written
/// as hexfloat literals. The shadow audit's regret is computed from these
/// outputs, so a change to the search, the oracle or the phase loop that
/// moves any of them moves the audit's figures.
struct McfPin {
  std::size_t phases;
  double congestion;
  double lower_bound;
  std::vector<double> load;
};

void expect_pinned(const Graph& g, const Demand& demand, const McfPin& pin) {
  const std::vector<Commodity> commodities = demand.commodities();
  McfOptions recording;
  recording.record_paths = true;
  for (const McfOptions& options : {McfOptions{}, recording}) {
    SCOPED_TRACE(testing::Message() << "record_paths " << options.record_paths);
    const McfResult r = min_congestion_routing(g, commodities, options);
    EXPECT_EQ(r.phases, pin.phases);
    EXPECT_EQ(r.congestion, pin.congestion);
    EXPECT_EQ(r.lower_bound, pin.lower_bound);
    EXPECT_FALSE(r.truncated);
    ASSERT_EQ(r.load.size(), pin.load.size());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(r.load[e], pin.load[e]) << "edge " << e;
    }
    if (!options.record_paths) continue;
    // The decomposition carries each amount and re-adds to the load.
    ASSERT_EQ(r.paths.size(), commodities.size());
    EdgeLoad readded = zero_load(g);
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      double weight_sum = 0;
      for (const auto& [path, weight] : r.paths[j]) {
        EXPECT_TRUE(is_simple_path(g, path));
        weight_sum += weight;
        add_path_load(path, weight, readded);
      }
      EXPECT_NEAR(weight_sum, commodities[j].amount,
                  1e-12 * commodities[j].amount);
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_NEAR(readded[e], r.load[e], 1e-12 * std::max(1.0, r.load[e]));
    }
  }
}

TEST(Mcf, GeantPerturbedGravityBitsArePinned) {
  // The audit's shape: GÉANT, a noisy gravity matrix over all 231 pairs.
  const Graph g = make_geant().graph;
  Rng rng(7);
  const Demand demand =
      perturbed_gravity_demand(g, all_vertices(g), 40.0, 0.5, rng);
  expect_pinned(
      g, demand,
      {434, 0x1.9693351a746f6p-1, 0x1.83490d39ef1c8p-1,
       {0x1.68a2c3dd9afe1p+2, 0x1.336bf8936043ap+2, 0x1.1ac67517af865p+0,
        0x1.67d69db1e76c1p+0, 0x1.77cfc84029189p+2, 0x1.dcbd3ae68cb7ap+1,
        0x1.98d3d8277176fp+1, 0x1.838ea2b631392p+2, 0x1.8b3296fd1dd6dp+1,
        0x1.5f013a829d4ebp+1, 0x1.d2b4ba660c01fp+1, 0x1.fc380261118b3p+2,
        0x1.751ca7ab197d6p+1, 0x1.59e896a00c9b2p+1, 0x1.b9b2bddfe7d58p+1,
        0x1.d17c36fc0c3d3p+1, 0x1.266a21b375c77p+2, 0x1.1cd161e75f886p+1,
        0x1.7f4b622c11957p+1, 0x1.e3d9d08e85d9fp+1, 0x1.3c923e2e2eb3bp+1,
        0x1.81fd20c030291p+1, 0x1.d640b788ff0f4p+1, 0x1.2fcdca72ef5f7p+1,
        0x1.2fa2dd4192e69p+1, 0x1.c0c3188714797p+0, 0x1.221b6a2e3fcd3p+1,
        0x1.387d1b35093bfp+0, 0x1.29497dc635368p+0, 0x1.1b6d71506230ep+1,
        0x1.3260be06f5a1dp+1, 0x1.b6a372f916488p+0, 0x1.65cdeb4624dd7p+0,
        0x1.3b7f08e2123d6p+1, 0x1.74e34f8b16a77p+0, 0x1.0ca90e194ebc9p+0}});
}

TEST(Mcf, UnitTorusPermutationBitsArePinned) {
  // Unit capacities: every early phase ties on length between routes, so
  // this pins the search's tie rule as well.
  const Graph g = make_torus(4, 4);
  Rng rng(5);
  const Demand demand = random_permutation_demand(g, rng);
  expect_pinned(
      g, demand,
      {265, 0x1.39f656f1826a4p+0, 0x1.2b1095e26b098p+0,
       {0x1.2a8172f55fa34p+0, 0x1.1a1540b97aafdp+0, 0x1.13521cfb2b78cp+0,
        0x1.1b0c8ef93cdc4p+0, 0x1.2a8172f55fa34p+0, 0x1.05cbd57e8d0aap+0,
        0x1.125acebb694c5p+0, 0x1.04d4873ecade3p+0, 0x1.2a8172f55fa34p+0,
        0x1.2d675db4a6289p+0, 0x1.694c5125acebbp-1, 0x1.39f656f1826a4p+0,
        0x1.2b78c13521cfbp+0, 0x1.eabf4685502e6p-1, 0x1p+0,
        0x1.2c700f74e3fc2p+0, 0x1.c9e6e20d86478p-1, 0x1.e4f37106c323cp-1,
        0x1.39f656f1826a4p+0, 0x1.ecade304d4874p-1, 0x1.38ff08b1c03ddp+0,
        0x1.e8d0aa05cbd58p-1, 0x1.00f74e3fc22c7p+0, 0x1.05cbd57e8d0aap+0,
        0x1.b694c5125acecp-1, 0x1.24b59d76d298ap+0, 0x1.39f656f1826a4p+0,
        0x1.36191df279b88p+0, 0x1.3807ba71fe116p+0, 0x1.03dd38ff08b1cp+0,
        0x1.0d86477c9e6e2p+0, 0x1.2c700f74e3fc2p+0}});
}

TEST(Mcf, EmptyDemand) {
  const Graph g = make_grid(2, 2);
  const McfResult r = min_congestion_routing(g, {});
  EXPECT_DOUBLE_EQ(r.congestion, 0.0);
}

TEST(Mcf, RejectsBadCommodities) {
  const Graph g = make_grid(2, 2);
  const std::vector<Commodity> self{{1, 1, 1.0}};
  EXPECT_THROW(min_congestion_routing(g, self), CheckError);
  const std::vector<Commodity> zero{{0, 1, 0.0}};
  EXPECT_THROW(min_congestion_routing(g, zero), CheckError);
}

}  // namespace
}  // namespace sor
