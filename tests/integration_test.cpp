// Parameterized end-to-end property tests: for every (topology, k, seed)
// combination, the full pipeline — oblivious routing → (λ·k)-sample →
// restricted LP → integral rounding — must satisfy the paper's structural
// invariants. These are the cross-module contracts the unit suites can't
// see.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/evaluate.hpp"
#include "core/router.hpp"
#include "core/sampler.hpp"
#include "core/weak_routing.hpp"
#include "demand/generators.hpp"
#include "flow/mcf.hpp"
#include "graph/generators.hpp"
#include "oblivious/electrical.hpp"
#include "oblivious/hop_bounded_trees.hpp"
#include "oblivious/ksp.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/shortest_path.hpp"

namespace sor {
namespace {

struct PipelineCase {
  std::string topology;
  std::size_t k;
  std::uint64_t seed;
};

void PrintTo(const PipelineCase& c, std::ostream* os) {
  *os << c.topology << "/k" << c.k << "/s" << c.seed;
}

Graph build_topology(const std::string& name) {
  if (name == "grid") return make_grid(5, 5);
  if (name == "torus") return make_torus(4, 5);
  if (name == "hypercube") return make_hypercube(4);
  if (name == "expander") return make_random_regular(24, 4, 3);
  if (name == "fattree") return make_fat_tree(4);
  if (name == "abilene") return make_abilene().graph;
  throw CheckError("unknown topology " + name);
}

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, EndToEndInvariants) {
  const PipelineCase& param = GetParam();
  const Graph g = build_topology(param.topology);

  RaeckeOptions racke;
  racke.seed = param.seed;
  const RaeckeRouting routing(g, racke);

  Rng demand_rng(param.seed + 1);
  const Demand demand = random_permutation_demand(g, demand_rng);
  ASSERT_FALSE(demand.empty());

  SampleOptions sample;
  sample.k = param.k;
  const PathSystem system =
      sample_path_system_for_demand(routing, demand, sample, param.seed + 2);

  // --- Sampling invariants -------------------------------------------
  EXPECT_EQ(system.num_pairs(), demand.support_size());
  for (const VertexPair& pair : system.pairs()) {
    const auto paths = system.paths(pair.a, pair.b);
    EXPECT_EQ(paths.size(), param.k);
    for (const PathView p : paths) {
      EXPECT_TRUE(is_simple_path(g, p));
      EXPECT_EQ(p.src, pair.a);
      EXPECT_EQ(p.dst, pair.b);
    }
  }

  // --- Fractional routing invariants ---------------------------------
  const SemiObliviousRouter router(g, system);
  const FractionalRoute frac = router.route_fractional(demand);
  EXPECT_GT(frac.congestion, 0.0);
  EXPECT_LE(frac.lower_bound, frac.congestion * 1.06 + 1e-6);

  // Weights cover each commodity's demand exactly.
  const std::vector<Commodity> commodities = demand.commodities();
  ASSERT_EQ(frac.problem.commodities.size(), commodities.size());
  ASSERT_EQ(frac.weights.size(), frac.problem.paths.size());
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    const RestrictedCommodity& c = frac.problem.commodities[j];
    double total = 0;
    for (PathId id = c.begin; id < c.end; ++id) {
      EXPECT_GE(frac.weights[id], -1e-9);
      total += frac.weights[id];
    }
    EXPECT_NEAR(total, commodities[j].amount, 1e-5);
  }

  // Load matches the weights' load (consistency of bookkeeping).
  EdgeLoad recomputed = zero_load(g);
  for (PathId id = 0; id < frac.weights.size(); ++id) {
    if (frac.weights[id] > 0) {
      add_path_load(frac.problem.paths[id], frac.weights[id], recomputed);
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(recomputed[e], frac.load[e], 1e-6);
  }

  // --- Competitiveness sanity -----------------------------------------
  const McfResult opt = min_congestion_routing(g, commodities);
  // Semi-oblivious can't beat OPT (modulo the MCF ε slack)...
  EXPECT_GE(frac.congestion, opt.lower_bound * 0.9);
  // ...and with k >= 2 samples from Räcke it must be within a generous
  // polylog factor on these small graphs.
  if (param.k >= 2) {
    const double logn = std::log2(static_cast<double>(g.num_vertices()));
    EXPECT_LE(frac.congestion, opt.congestion * (4 * logn + 8));
  }

  // --- Integral rounding invariants -----------------------------------
  Rng round_rng(param.seed + 3);
  const IntegralRoute integral = router.route_integral(demand, round_rng);
  EXPECT_EQ(integral.packet_paths.size(),
            static_cast<std::size_t>(std::llround(demand.total())));
  EXPECT_GE(integral.congestion + 1e-9, frac.congestion);
  EXPECT_LE(integral.congestion,
            2 * frac.congestion +
                2 * std::log2(static_cast<double>(g.num_edges())) + 2);

  // --- Weak routing at a generous threshold keeps everything ----------
  const double threshold = 2 * frac.congestion + 1;
  const WeakRoutingResult weak =
      weak_routing_process(frac.problem, threshold);
  EXPECT_LE(weak.congestion, threshold + 1e-9);
}

std::vector<PipelineCase> pipeline_cases() {
  std::vector<PipelineCase> cases;
  for (const char* topology :
       {"grid", "torus", "hypercube", "expander", "fattree", "abilene"}) {
    for (const std::size_t k : {1u, 3u, 6u}) {
      cases.push_back({topology, k, 17 * k + 5});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, PipelineTest,
                         ::testing::ValuesIn(pipeline_cases()),
                         [](const auto& info) {
                           return info.param.topology + "_k" +
                                  std::to_string(info.param.k);
                         });

// ---------------------------------------------------------------------
// λ·k sampling across connectivity regimes.
// ---------------------------------------------------------------------

class LambdaSampleTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LambdaSampleTest, DumbbellBridgesGateTheSparsity) {
  const std::uint32_t bridges = GetParam();
  const Graph g = make_dumbbell(5, bridges);
  const ShortestPathRouting routing(g);
  SampleOptions options;
  options.k = 3;
  options.lambda_cap = 8;
  const std::vector<VertexPair> pairs{VertexPair::canonical(0, 5)};
  const PathSystem ps = sample_path_system(routing, pairs, options, 11);
  // λ(0,5) = #bridges (every 0→5 path crosses a bridge); sparsity = λ·k.
  EXPECT_EQ(ps.paths(0, 5).size(),
            static_cast<std::size_t>(std::min(bridges, 8u)) * 3);
}

INSTANTIATE_TEST_SUITE_P(BridgeCounts, LambdaSampleTest,
                         ::testing::Values(1u, 2u, 4u, 7u));

// ---------------------------------------------------------------------
// The integral-demand pipeline at scale factors (Lemma 2.7 flavor):
// arbitrary integral demands with λ·k samples.
// ---------------------------------------------------------------------

class IntegralDemandTest : public ::testing::TestWithParam<int> {};

TEST_P(IntegralDemandTest, HeavyIntegralDemandsRouteProportionally) {
  const int scale = GetParam();
  const Graph g = make_torus(4, 4);
  RaeckeOptions racke;
  racke.seed = 2;
  const RaeckeRouting routing(g, racke);
  Rng rng(3);
  Demand demand = uniform_random_pairs(g, 10, 1.0, rng);
  demand.scale(scale);

  SampleOptions sample;
  sample.k = 4;
  sample.lambda_cap = 4;
  const PathSystem ps =
      sample_path_system_for_demand(routing, demand, sample, 4);
  const SemiObliviousRouter router(g, ps);
  const FractionalRoute route = router.route_fractional(demand);

  // Scaling the demand scales the optimal congestion linearly; verify
  // homogeneity within MWU tolerance.
  Demand unit = demand;
  unit.scale(1.0 / scale);
  const FractionalRoute unit_route = router.route_fractional(unit);
  EXPECT_NEAR(route.congestion / scale, unit_route.congestion,
              0.12 * unit_route.congestion + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Scales, IntegralDemandTest,
                         ::testing::Values(2, 5, 16));

// ---------------------------------------------------------------------
// Same pipeline invariants, swept across every sampling source.
// ---------------------------------------------------------------------

class SourceTest : public ::testing::TestWithParam<std::string> {};

std::unique_ptr<ObliviousRouting> build_source(const std::string& name,
                                               const Graph& g) {
  if (name == "racke") {
    RaeckeOptions options;
    options.seed = 3;
    return std::make_unique<RaeckeRouting>(g, options);
  }
  if (name == "ksp") return std::make_unique<KspRouting>(g, 6);
  if (name == "electrical") return std::make_unique<ElectricalRouting>(g);
  if (name == "sp") return std::make_unique<ShortestPathRouting>(g);
  if (name == "hoptree") {
    return std::make_unique<HopBoundedTreeRouting>(g, 8, 0, 4);
  }
  throw CheckError("unknown source " + name);
}

TEST_P(SourceTest, SampleRouteRoundEndToEnd) {
  const Graph g = make_torus(4, 4);
  const auto source = build_source(GetParam(), g);

  Rng rng(5);
  const Demand demand = random_permutation_demand(g, rng);
  SampleOptions sample;
  sample.k = 4;
  const PathSystem ps =
      sample_path_system_for_demand(*source, demand, sample, 6);

  // Sampling contract.
  for (const VertexPair& pair : ps.pairs()) {
    for (const PathView p : ps.paths(pair.a, pair.b)) {
      ASSERT_TRUE(is_simple_path(g, p)) << GetParam();
    }
  }

  // Fractional + integral pipeline stays consistent regardless of source.
  const SemiObliviousRouter router(g, ps);
  const FractionalRoute frac = router.route_fractional(demand);
  EXPECT_GT(frac.congestion, 0.0);
  Rng round_rng(7);
  const IntegralRoute integral = router.route_integral(demand, round_rng);
  EXPECT_GE(integral.congestion + 1e-9, frac.congestion);
  EXPECT_EQ(integral.packet_paths.size(),
            static_cast<std::size_t>(demand.total()));
}

INSTANTIATE_TEST_SUITE_P(AllSources, SourceTest,
                         ::testing::Values("racke", "ksp", "electrical",
                                           "sp", "hoptree"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace sor
