// Cross-thread-count determinism suite. Everything here asserts
// bit-identical results when the same computation runs on pools of 1, 2,
// and 8 workers, with the artifact cache both off and on: the chunked
// parallel_reduce fold, path-system sampling, the restricted path LP and
// the MCF (whose phase loops compute their dual bounds on the pool), and
// a full engine run (controller epochs + replay digest). These are
// the regression tests for the parallel_reduce combine-order fix and the
// cache's bit-identical-reuse contract.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "core/path_system_io.hpp"
#include "core/router.hpp"
#include "core/sampler.hpp"
#include "demand/demand.hpp"
#include "demand/generators.hpp"
#include "engine/replay.hpp"
#include "flow/mcf.hpp"
#include "graph/generators.hpp"
#include "lp/path_lp.hpp"
#include "oblivious/valiant.hpp"
#include "serve/snapshot.hpp"
#include "telemetry/json.hpp"
#include "util/parallel.hpp"

namespace sor {
namespace {

// Runs `fn` under worker pools of size 1, 2, and 8 and returns the three
// results. Every determinism assertion below compares these for exact
// (bit-level) equality.
template <typename Fn>
auto at_pool_sizes(Fn&& fn) {
  std::vector<decltype(fn())> out;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ScopedDefaultPool scoped(workers);
    out.push_back(fn());
  }
  return out;
}

TEST(ParallelReduceDeterminism, FloatSumBitIdenticalAcrossThreadCounts) {
  // Magnitudes spanning ~16 orders: any change in the fold order changes
  // the rounding, so bit-equality here pins the combine order down.
  constexpr std::size_t kN = 10007;
  const auto body = [](std::size_t i) {
    const double sign = (i % 2 == 0) ? 1.0 : -1.0;
    return sign * std::pow(10.0, static_cast<double>(i % 17) - 8.0) /
           static_cast<double>(i + 1);
  };
  const auto combine = [](double a, double b) { return a + b; };
  const auto sums = at_pool_sizes(
      [&] { return parallel_reduce(kN, 0.0, body, combine); });
  const std::uint64_t reference = std::bit_cast<std::uint64_t>(sums[0]);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[1]), reference);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[2]), reference);
  EXPECT_TRUE(std::isfinite(sums[0]));
}

TEST(ParallelReduceDeterminism, ExplicitPoolMatchesDefaultPool) {
  ThreadPool pool(3);
  const auto body = [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); };
  const auto combine = [](double a, double b) { return a + b; };
  const double with_pool = parallel_reduce(4096, 0.0, body, combine, &pool);
  ScopedDefaultPool scoped(5);
  const double with_default = parallel_reduce(4096, 0.0, body, combine);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(with_pool),
            std::bit_cast<std::uint64_t>(with_default));
}

TEST(ParallelReduceDeterminism, EmptyRangeReturnsInit) {
  EXPECT_EQ(parallel_reduce(
                0, 42.5, [](std::size_t) { return 1.0; },
                [](double a, double b) { return a + b; }),
            42.5);
}

TEST(JsonNonFinite, DumpsNullAndReadsBackAsNaN) {
  telemetry::JsonValue obj = telemetry::JsonValue::object();
  obj.set("nan", telemetry::JsonValue(std::nan("")));
  obj.set("inf", telemetry::JsonValue(HUGE_VAL));
  obj.set("ninf", telemetry::JsonValue(-HUGE_VAL));
  obj.set("finite", telemetry::JsonValue(1.5));
  const std::string text = obj.dump();
  EXPECT_EQ(text, R"({"nan":null,"inf":null,"ninf":null,"finite":1.5})");
  const telemetry::JsonValue parsed = telemetry::JsonValue::parse(text);
  EXPECT_TRUE(parsed.at("nan").is_null());
  EXPECT_TRUE(std::isnan(parsed.at("nan").as_number()));
  EXPECT_TRUE(std::isnan(parsed.at("inf").as_number()));
  EXPECT_EQ(parsed.at("finite").as_number(), 1.5);
  // Round-trip is stable: dumping the parsed document reproduces the text.
  EXPECT_EQ(parsed.dump(), text);
}

std::string sample_digest() {
  const Graph g = make_hypercube(4);
  const ValiantHypercube routing(g, 4);
  SampleOptions options;
  options.k = 4;
  return serialize_path_system(
      sample_path_system_all_pairs(routing, options, 17));
}

TEST(SamplerDeterminism, IdenticalAcrossThreadCountsAndCacheModes) {
  cache::ArtifactCache::global().clear();
  cache::ArtifactCache::set_enabled(false);
  const auto uncached = at_pool_sizes(sample_digest);
  EXPECT_EQ(uncached[1], uncached[0]);
  EXPECT_EQ(uncached[2], uncached[0]);
  cache::ArtifactCache::set_enabled(true);
  const auto cached = at_pool_sizes(sample_digest);
  EXPECT_EQ(cached[0], uncached[0]);  // cold fill
  EXPECT_EQ(cached[1], uncached[0]);  // warm hits
  EXPECT_EQ(cached[2], uncached[0]);
  EXPECT_GE(cache::ArtifactCache::global().stats().hits, 2u);
}

void expect_same_bits(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "entry " << i;
  }
}

TEST(PathLpDeterminism, MwuSolveBitIdenticalAcrossThreadCounts) {
  const Graph g = make_hypercube(4);
  const ValiantHypercube routing(g, 4);
  SampleOptions options;
  options.k = 4;
  const PathSystem system = sample_path_system_all_pairs(routing, options, 3);
  RestrictedProblem problem;
  problem.graph = &g;
  for (const VertexPair& pair : system.pairs()) {
    const double amount = 1.0 + 0.25 * static_cast<double>(pair.a % 3);
    append_commodity(problem, Commodity{pair.a, pair.b, amount}, system);
  }
  const auto solutions = at_pool_sizes([&] { return solve_restricted_mwu(problem); });
  const RestrictedSolution& reference = solutions[0];
  EXPECT_GT(reference.congestion, 0.0);
  for (std::size_t s = 1; s < solutions.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solutions[s].congestion),
              std::bit_cast<std::uint64_t>(reference.congestion));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solutions[s].lower_bound),
              std::bit_cast<std::uint64_t>(reference.lower_bound));
    EXPECT_EQ(solutions[s].phases, reference.phases);
    expect_same_bits(solutions[s].weights, reference.weights);
  }
}

TEST(McfDeterminism, BitIdenticalAcrossThreadCounts) {
  const Graph g = make_geant().graph;
  Rng rng(7);
  const std::vector<Commodity> commodities =
      perturbed_gravity_demand(g, all_vertices(g), 40.0, 0.5, rng)
          .commodities();
  for (const bool record_paths : {false, true}) {
    SCOPED_TRACE(testing::Message() << "record_paths " << record_paths);
    McfOptions options;
    options.record_paths = record_paths;
    const auto results = at_pool_sizes(
        [&] { return min_congestion_routing(g, commodities, options); });
    const McfResult& reference = results[0];
    EXPECT_GT(reference.phases, 1u);
    for (std::size_t s = 1; s < results.size(); ++s) {
      EXPECT_EQ(results[s].phases, reference.phases);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(results[s].congestion),
                std::bit_cast<std::uint64_t>(reference.congestion));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(results[s].lower_bound),
                std::bit_cast<std::uint64_t>(reference.lower_bound));
      expect_same_bits(results[s].load, reference.load);
      ASSERT_EQ(results[s].paths.size(), reference.paths.size());
      for (std::size_t j = 0; j < reference.paths.size(); ++j) {
        ASSERT_EQ(results[s].paths[j].size(), reference.paths[j].size());
        for (const auto& [path, weight] : reference.paths[j]) {
          const auto it = results[s].paths[j].find(path);
          ASSERT_NE(it, results[s].paths[j].end()) << "commodity " << j;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second),
                    std::bit_cast<std::uint64_t>(weight));
        }
      }
    }
  }
}

std::string engine_digest() {
  engine::EngineRunConfig config;
  config.topology = "hypercube:3";
  config.source = "sp";
  config.k = 3;
  config.seed = 23;
  config.trace.num_epochs = 4;
  const engine::EngineRunOutput out = engine::run_from_config(config);
  return engine::digest_json(out.record, out.result).dump();
}

TEST(ServeSnapshotDeterminism, SerializeBitIdenticalAcrossThreadCounts) {
  // The serving layer's byte-identity contract rides on serialize() being
  // a pure function of table CONTENT: route_fractional solved on 1, 2,
  // and 8 workers must freeze into byte-identical snapshots (digest
  // included). This pins down the sorted-emission guarantee the ctest
  // two-process digest comparison checks at the CLI level.
  const Graph g = make_hypercube(3);
  const ValiantHypercube routing(g, 3);
  SampleOptions options;
  options.k = 3;
  const PathSystem system = sample_path_system_all_pairs(routing, options, 5);
  Demand demand;
  for (const VertexPair& pair : system.pairs()) {
    demand.add(pair.a, pair.b, 1.0 + 0.5 * static_cast<double>(pair.a % 2));
  }
  RouterOptions router_options;
  router_options.backend = LpBackend::kMwu;
  const SemiObliviousRouter router(g, system, router_options);
  const auto snapshots = at_pool_sizes([&] {
    return serve::RouteSnapshot::build(
        11, split_fractions(router.route_fractional(demand)));
  });
  EXPECT_GT(snapshots[0].num_paths(), 0u);
  const std::string reference = snapshots[0].serialize();
  for (std::size_t s = 1; s < snapshots.size(); ++s) {
    EXPECT_EQ(snapshots[s].serialize(), reference);
    EXPECT_EQ(snapshots[s].digest(), snapshots[0].digest());
  }
}

TEST(EngineDeterminism, ReplayDigestIdenticalAcrossThreadCountsAndCacheModes) {
  cache::ArtifactCache::global().clear();
  cache::ArtifactCache::set_enabled(false);
  const auto uncached = at_pool_sizes(engine_digest);
  EXPECT_EQ(uncached[1], uncached[0]);
  EXPECT_EQ(uncached[2], uncached[0]);
  cache::ArtifactCache::set_enabled(true);
  const auto cached = at_pool_sizes(engine_digest);
  EXPECT_EQ(cached[0], uncached[0]);
  EXPECT_EQ(cached[1], uncached[0]);
  EXPECT_EQ(cached[2], uncached[0]);
}

}  // namespace
}  // namespace sor
