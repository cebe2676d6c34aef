// Runtime health layer tests: quantile-sketch bucketing and quantiles,
// the registry and the SOR_TELEMETRY kill switch over it (no recording
// when disabled), merge determinism of sharded sketches across thread
// pool sizes (the pool-size bit-stability contract extended to
// telemetry), SLO tracker breach side effects (registry + flight
// recorder), the SLO cache floor over the artifact cache's own counts,
// offline artifact SLO evaluation, the Prometheus exposition format,
// and the one-registry contract over a whole control loop (every span
// feeds one seconds sketch; telemetry off records nothing). The
// concurrent-interning stress runs under SOR_SANITIZE=thread like every
// other test.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "engine/replay.hpp"
#include "serve/service.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/export.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/memory.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/sketch.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace sor {
namespace {

struct ScopedEnable {
  explicit ScopedEnable(bool on = true) : previous(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~ScopedEnable() { telemetry::set_enabled(previous); }
  bool previous;
};

/// Zeroes the process-wide health state so tests do not observe each
/// other's metrics.
void reset_health() {
  telemetry::Registry::global().reset();
  telemetry::Recorder::global().clear();
}

template <typename Fn>
auto at_pool_sizes(Fn&& fn) {
  std::vector<decltype(fn())> out;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ScopedDefaultPool scoped(workers);
    out.push_back(fn());
  }
  return out;
}

TEST(Sketch, BucketIndexIsMonotoneAndBoundsContainValues) {
  using telemetry::Sketch;
  // Zero and negatives land in the dedicated bucket 0.
  EXPECT_EQ(Sketch::bucket_index(0.0), 0u);
  EXPECT_EQ(Sketch::bucket_index(-3.5), 0u);
  EXPECT_EQ(Sketch::bucket_index(-std::numeric_limits<double>::infinity()),
            0u);

  std::size_t previous = 0;
  for (double v = 1e-8; v < 1e6; v *= 1.37) {
    const std::size_t index = Sketch::bucket_index(v);
    EXPECT_GE(index, previous);  // monotone in the value
    EXPECT_GT(index, 0u);
    EXPECT_LT(index, Sketch::kNumBuckets);
    // The representative is the bucket's lower bound: <= v, and within
    // one sub-bucket's relative error (1/16 per octave).
    const double lo = Sketch::bucket_lower_bound(index);
    EXPECT_LE(lo, v);
    EXPECT_GE(lo, v / (1.0 + 1.0 / 8.0));
    previous = index;
  }
  // Out-of-range magnitudes clamp instead of indexing out of bounds.
  EXPECT_EQ(Sketch::bucket_index(1e300), Sketch::kNumBuckets - 1);
  EXPECT_GT(Sketch::bucket_index(1e-300), 0u);
  EXPECT_LT(Sketch::bucket_index(1e-300), Sketch::kNumBuckets);
}

TEST(Sketch, QuantilesTrackNearestRankWithinBucketError) {
  const ScopedEnable enable;
  telemetry::Sketch sketch;
  // 1..1000 in a scrambled (deterministic) order.
  for (int i = 0; i < 1000; ++i) {
    sketch.observe(static_cast<double>((i * 617) % 1000 + 1));
  }
  const telemetry::SketchSnapshot snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);  // exact, not a bucket bound
  // Bucket representatives are lower bounds within 1/16 relative error.
  const double p50 = telemetry::sketch_quantile(snap, 0.50);
  const double p99 = telemetry::sketch_quantile(snap, 0.99);
  EXPECT_LE(p50, 500.5);
  EXPECT_GE(p50, 500.5 / (1.0 + 1.0 / 8.0));
  EXPECT_LE(p99, 991.0);
  EXPECT_GE(p99, 991.0 / (1.0 + 1.0 / 8.0));
  // summary() agrees with the free quantile function.
  const StatsSummary summary = sketch.summary();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(summary.p50),
            std::bit_cast<std::uint64_t>(p50));
}

TEST(Sketch, KillSwitchMakesObserveANoop) {
  const ScopedEnable disable(false);
  telemetry::Sketch sketch;
  sketch.observe(1.0);
  sketch.observe(42.0);
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.snapshot().buckets.size(), 0u);
}

// Under SOR_TELEMETRY=off nothing in the registry records — sketch
// observations and breach recording are both no-ops (and the hot path
// takes no locks: the guard is one relaxed atomic-bool load).
TEST(RegistryWindows, KillSwitchDisablesAllRecording) {
  reset_health();
  const ScopedEnable disable(false);
  auto& registry = telemetry::Registry::global();
  registry.sketch("test/off_sketch").observe(1.0);
  registry.sketch("test/off_bytes").observe(4096.0);
  registry.record_breach({"max_congestion", 0, 2.0, 1.0});

  for (const auto& [name, snap] : registry.sketches()) {
    EXPECT_EQ(snap.count, 0u) << name;
    EXPECT_DOUBLE_EQ(snap.sum, 0.0) << name;
  }
  EXPECT_TRUE(registry.breaches().empty());
  EXPECT_EQ(registry.health_status(), 0);
}

// Satellite 3: a sharded observation stream merges to byte-identical
// quantiles no matter how many workers observed the shards. The shard
// structure is fixed (like parallel_reduce's chunking), only the pool
// size varies.
TEST(Sketch, MergeIsBitIdenticalAcrossThreadPoolSizes) {
  const ScopedEnable enable;
  constexpr std::size_t kShards = 16;
  constexpr std::size_t kPerShard = 500;

  struct Digest {
    std::uint64_t count;
    std::uint64_t p50, p95, p99, max;
  };
  const auto run = [&]() -> Digest {
    std::vector<telemetry::Sketch> sketches(kShards);
    parallel_for(kShards, [&](std::size_t s) {
      for (std::size_t i = 0; i < kPerShard; ++i) {
        const std::size_t k = s * kPerShard + i;
        // Latency-like spread over ~6 orders of magnitude.
        sketches[s].observe(1e-6 *
                            std::pow(10.0, static_cast<double>(k % 6001) /
                                               1000.0));
      }
    });
    std::vector<telemetry::SketchSnapshot> parts;
    parts.reserve(kShards);
    for (const telemetry::Sketch& s : sketches) {
      parts.push_back(s.snapshot());
    }
    const telemetry::SketchSnapshot merged =
        telemetry::merge_sketch_snapshots(parts);
    return {merged.count,
            std::bit_cast<std::uint64_t>(telemetry::sketch_quantile(merged, 0.50)),
            std::bit_cast<std::uint64_t>(telemetry::sketch_quantile(merged, 0.95)),
            std::bit_cast<std::uint64_t>(telemetry::sketch_quantile(merged, 0.99)),
            std::bit_cast<std::uint64_t>(merged.max)};
  };

  const auto digests = at_pool_sizes(run);
  ASSERT_EQ(digests.size(), 3u);
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].count, digests[0].count);
    EXPECT_EQ(digests[i].p50, digests[0].p50);
    EXPECT_EQ(digests[i].p95, digests[0].p95);
    EXPECT_EQ(digests[i].p99, digests[0].p99);
    EXPECT_EQ(digests[i].max, digests[0].max);
  }
  EXPECT_EQ(digests[0].count, kShards * kPerShard);
}

// A single sketch observed concurrently summarizes identically to the
// same observations applied sequentially: bucket counts are commutative
// atomic adds and min/max are commutative CAS-combines (sum is the
// documented exception and is not compared).
TEST(Sketch, ConcurrentObservationMatchesSequential) {
  const ScopedEnable enable;
  constexpr std::size_t kN = 20000;
  const auto value = [](std::size_t i) {
    return 1e-3 * static_cast<double>(i % 997 + 1);
  };

  telemetry::Sketch sequential;
  for (std::size_t i = 0; i < kN; ++i) sequential.observe(value(i));

  telemetry::Sketch concurrent;
  parallel_for(kN, [&](std::size_t i) { concurrent.observe(value(i)); });

  const auto a = sequential.snapshot();
  const auto b = concurrent.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.min),
            std::bit_cast<std::uint64_t>(b.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max),
            std::bit_cast<std::uint64_t>(b.max));
}

// Concurrent interning + recording from many threads; run under
// SOR_SANITIZE=thread this is the registry's data-race check
// (satellite 5).
TEST(RegistryWindows, ConcurrentInterningAndRecordingIsSafe) {
  reset_health();
  const ScopedEnable enable;
  constexpr std::size_t kN = 4000;
  parallel_for(kN, [&](std::size_t i) {
    auto& registry = telemetry::Registry::global();
    // A handful of names, interned repeatedly from every thread.
    const std::string id = std::to_string(i % 7);
    registry.sketch("stress/sketch" + id)
        .observe(static_cast<double>(i % 100 + 1));
  });
  std::uint64_t total = 0;
  double sum = 0;
  for (const auto& [name, snap] : telemetry::Registry::global().sketches()) {
    if (name.rfind("stress/", 0) != 0) continue;
    total += snap.count;
    sum += snap.sum;
  }
  // Every observation lands exactly once: integer-valued sums are exact
  // in any order.
  EXPECT_EQ(total, kN);
  double expected = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    expected += static_cast<double>(i % 100 + 1);
  }
  EXPECT_EQ(sum, expected);
  reset_health();
}

TEST(Slo, ParseAcceptsKnownKeysAndRejectsUnknown) {
  const telemetry::SloConfig config = telemetry::parse_slo_config(
      R"({"max_congestion": 1.5, "solve_p99_ms": 250, "min_cache_hit_rate": 0.8})");
  EXPECT_DOUBLE_EQ(config.max_congestion, 1.5);
  EXPECT_DOUBLE_EQ(config.solve_p99_ms, 250.0);
  EXPECT_DOUBLE_EQ(config.min_cache_hit_rate, 0.8);
  EXPECT_TRUE(config.any_set());
  EXPECT_FALSE(telemetry::parse_slo_config("{}").any_set());
  EXPECT_THROW(telemetry::parse_slo_config(R"({"max_congeston": 1.5})"),
               CheckError);
}

TEST(Slo, ParseAcceptsQualityKeys) {
  const telemetry::SloConfig config = telemetry::parse_slo_config(
      R"({"max_regret": 1.2, "max_predictor_mape": 0.3})");
  EXPECT_DOUBLE_EQ(config.max_regret, 1.2);
  EXPECT_DOUBLE_EQ(config.max_predictor_mape, 0.3);
  EXPECT_TRUE(config.any_set());
}

TEST(Slo, QualityBreachesUseSentinelSkips) {
  reset_health();
  const ScopedEnable enable;
  telemetry::SloConfig config;
  config.max_regret = 1.2;
  config.max_predictor_mape = 0.25;
  telemetry::SloTracker tracker(config);
  ASSERT_TRUE(tracker.active());

  // Negative sentinels mean "not measured this epoch" (no shadow sample /
  // bootstrap) and must not breach.
  EXPECT_TRUE(tracker.check_epoch(0, 0.5, 1.0, -1.0, -1.0, -1.0).empty());
  // In-budget figures hold.
  EXPECT_TRUE(tracker.check_epoch(1, 0.5, 1.0, -1.0, 1.1, 0.2).empty());
  // Both quality budgets blown.
  const auto breaches = tracker.check_epoch(2, 0.5, 1.0, -1.0, 1.5, 0.4);
  ASSERT_EQ(breaches.size(), 2u);
  EXPECT_EQ(breaches[0].slo, "max_regret");
  EXPECT_DOUBLE_EQ(breaches[0].value, 1.5);
  EXPECT_EQ(breaches[1].slo, "max_predictor_mape");
  reset_health();
}

TEST(Slo, EvaluateArtifactChecksQualityBlock) {
  using telemetry::JsonValue;
  const JsonValue artifact = JsonValue::parse(R"({
    "experiment": "E16",
    "health": {"breaches": [], "sketches": {}, "status": 0},
    "quality": {
      "regret": {"epochs": [0, 2], "max": 1.4, "p95": 1.3},
      "predictor": {"scored_epochs": 3, "mape_max": 0.5, "mape_mean": 0.2}
    }
  })");
  telemetry::SloConfig config;
  config.max_regret = 1.2;
  config.max_predictor_mape = 0.4;
  const telemetry::ArtifactSloReport report =
      telemetry::evaluate_artifact_slo(artifact, config);
  ASSERT_EQ(report.evaluated.size(), 2u);
  EXPECT_EQ(report.evaluated[0].slo, "max_regret");
  EXPECT_DOUBLE_EQ(report.evaluated[0].value, 1.4);
  EXPECT_EQ(report.status, 1);

  // No samples recorded: the quality budgets are vacuously met.
  const JsonValue empty_quality = JsonValue::parse(R"({
    "experiment": "E16",
    "health": {"breaches": [], "sketches": {}, "status": 0},
    "quality": {
      "regret": {"epochs": [], "max": 0, "p95": 0},
      "predictor": {"scored_epochs": 0, "mape_max": 0, "mape_mean": 0}
    }
  })");
  EXPECT_EQ(telemetry::evaluate_artifact_slo(empty_quality, config).status, 0);
}

TEST(Slo, TrackerRecordsBreachesToRegistryAndFlightRecorder) {
  reset_health();
  const ScopedEnable enable;
  telemetry::SloConfig config;
  config.max_congestion = 1.0;
  config.solve_p99_ms = 10.0;
  config.min_cache_hit_rate = 0.5;
  telemetry::SloTracker tracker(config);
  ASSERT_TRUE(tracker.active());

  // Healthy epoch: nothing breaches; hit rate -1 means "no traffic" and
  // skips the floor.
  EXPECT_TRUE(tracker.check_epoch(0, 0.8, 5.0, -1.0).empty());
  EXPECT_EQ(telemetry::Registry::global().health_status(), 0);

  // Everything breaches at once.
  const auto breaches = tracker.check_epoch(1, 2.0, 50.0, 0.1);
  ASSERT_EQ(breaches.size(), 3u);
  EXPECT_EQ(telemetry::Registry::global().health_status(), 1);
  EXPECT_EQ(telemetry::Registry::global().breaches().size(), 3u);

  // Each breach is also a structured flight-recorder event.
  std::size_t recorded = 0;
  for (const telemetry::RecorderEvent& event :
       telemetry::Recorder::global().snapshot()) {
    if (event.category == "slo/breach") ++recorded;
  }
  EXPECT_EQ(recorded, 3u);

  // Registry::reset() clears the breach list with the metrics.
  reset_health();
  EXPECT_TRUE(telemetry::Registry::global().breaches().empty());
  EXPECT_EQ(telemetry::Registry::global().health_status(), 0);
}

// The cache floor reads the artifact cache's own counts, which move
// whatever SOR_TELEMETRY says: two identical runs against a cleared,
// memory-only cache miss every lookup, then hit every one, and both fall
// short of a 0.99 floor with telemetry off as well as on.
TEST(Slo, CacheFloorHoldsWithTelemetryOff) {
  for (const bool on : {false, true}) {
    reset_health();
    const ScopedEnable telemetry_switch(on);
    const bool cache_was_enabled = cache::ArtifactCache::enabled();
    cache::ArtifactCache::set_enabled(true);
    cache::ArtifactCache& cache = cache::ArtifactCache::global();
    const std::string directory = cache.directory();
    cache.set_directory("");
    cache.clear();
    engine::EngineRunConfig config;
    config.trace.num_epochs = 2;
    config.engine.slo.min_cache_hit_rate = 0.99;

    std::vector<double> rates;
    for (int run = 0; run < 2; ++run) {
      const engine::EngineRunOutput out = engine::run_from_config(config);
      ASSERT_EQ(out.result.epochs.size(), 2u);
      EXPECT_EQ(out.result.health_status, 1) << "telemetry " << on;
      for (const engine::EpochReport& report : out.result.epochs) {
        EXPECT_EQ(report.health.breaches, 1u) << "telemetry " << on;
      }
      ASSERT_FALSE(out.result.breaches.empty());
      EXPECT_EQ(out.result.breaches.front().slo, "cache_hit_rate");
      rates.push_back(out.result.epochs.back().health.cache_hit_rate);
    }
    const cache::CacheStats stats = cache.stats();
    EXPECT_GT(stats.misses, 0u);
    EXPECT_EQ(stats.hits + stats.disk_hits, stats.misses);
    EXPECT_DOUBLE_EQ(rates[0], 0.0) << "telemetry " << on;
    EXPECT_DOUBLE_EQ(rates[1], 0.5) << "telemetry " << on;
    EXPECT_DOUBLE_EQ(rates[1], stats.hit_rate());
    cache.clear();
    cache.set_directory(directory);
    cache::ArtifactCache::set_enabled(cache_was_enabled);
  }
  reset_health();
}

// Acceptance criterion: an engine run with an unmeetable SLO reports the
// breaches in its result, flips the health status, and the per-epoch
// reports carry the health snapshot.
TEST(Slo, EngineRunWithTightSloBreaches) {
  reset_health();
  const ScopedEnable enable;
  engine::EngineRunConfig config;
  config.source = "sp";
  config.trace.num_epochs = 3;
  config.engine.slo.max_congestion = 1e-9;
  const engine::EngineRunOutput out = engine::run_from_config(config);

  EXPECT_EQ(out.result.health_status, 1);
  EXPECT_FALSE(out.result.breaches.empty());
  ASSERT_EQ(out.result.epochs.size(), 3u);
  for (const engine::EpochReport& report : out.result.epochs) {
    EXPECT_GE(report.health.breaches, 1u);
    EXPECT_GT(report.health.congestion_watermark, 0.0);
    EXPECT_GE(report.health.solve_p99_ms, report.health.solve_p50_ms);
  }
  // The watermark is the running max of realized congestion.
  EXPECT_DOUBLE_EQ(out.result.epochs.back().health.congestion_watermark,
                   out.result.congestion_summary.max);
  std::size_t recorded = 0;
  for (const telemetry::RecorderEvent& event :
       telemetry::Recorder::global().snapshot()) {
    if (event.category == "slo/breach") ++recorded;
  }
  EXPECT_GE(recorded, 3u);  // at least one per epoch
  reset_health();
}

// The same run without an SLO config is healthy and records nothing.
TEST(Slo, EngineRunWithoutSloIsHealthy) {
  reset_health();
  const ScopedEnable enable;
  engine::EngineRunConfig config;
  config.source = "sp";
  config.trace.num_epochs = 2;
  const engine::EngineRunOutput out = engine::run_from_config(config);
  EXPECT_EQ(out.result.health_status, 0);
  EXPECT_TRUE(out.result.breaches.empty());
  reset_health();
}

TEST(Slo, EvaluateArtifactReportsRecordedAndReEvaluatedBreaches) {
  using telemetry::JsonValue;
  const JsonValue artifact = JsonValue::parse(R"({
    "experiment": "E16",
    "health": {
      "enabled": true,
      "breaches": [
        {"slo": "max_congestion", "epoch": 2, "value": 1.9, "budget": 1.0}
      ],
      "sketches": {
        "engine/solve_seconds":
          {"count": 8, "sum": 0.4, "min": 0.01, "max": 0.2,
           "p50": 0.04, "p95": 0.1, "p99": 0.125},
        "engine/congestion":
          {"count": 8, "sum": 8.0, "min": 0.5, "max": 1.9,
           "p50": 1.0, "p95": 1.75, "p99": 1.875}
      },
      "status": 1
    },
    "cache": {"hits": 1, "disk_hits": 0, "misses": 9}
  })");

  telemetry::SloConfig config;
  config.solve_p99_ms = 100.0;       // p99 is 125 ms -> breach
  config.max_congestion = 2.5;       // watermark 1.9 -> holds
  config.min_cache_hit_rate = 0.5;   // 0.1 -> breach
  const telemetry::ArtifactSloReport report =
      telemetry::evaluate_artifact_slo(artifact, config);
  EXPECT_EQ(report.recorded.size(), 1u);
  ASSERT_EQ(report.evaluated.size(), 2u);
  EXPECT_EQ(report.status, 1);

  // An artifact with no recorded breaches against a permissive config.
  const telemetry::ArtifactSloReport ok = telemetry::evaluate_artifact_slo(
      JsonValue::parse(R"({"experiment": "E16", "health": {"breaches": [],
                           "sketches": {}, "status": 0}})"),
      telemetry::SloConfig{});
  EXPECT_EQ(ok.status, 0);
}

// One rule: the offline check of an artifact and the per-epoch tracker
// return the same breaches, in the same order, for the same five figures.
TEST(Slo, ArtifactAndEpochChecksApplyOneRule) {
  using telemetry::JsonValue;
  reset_health();
  const ScopedEnable enable;
  // Congestion watermark 1.9, solve p99 125 ms, cache hit rate 0.1, worst
  // sampled regret 1.4, worst scored MAPE 0.5.
  const JsonValue artifact = JsonValue::parse(R"({
    "experiment": "E16",
    "health": {
      "breaches": [],
      "sketches": {
        "engine/solve_seconds": {"count": 8, "p50": 0.04, "p95": 0.1,
                                 "p99": 0.125, "max": 0.2},
        "engine/congestion": {"count": 8, "p50": 1.0, "p95": 1.75,
                              "p99": 1.875, "max": 1.9}
      },
      "status": 0
    },
    "cache": {"hits": 1, "disk_hits": 0, "misses": 9},
    "quality": {
      "regret": {"epochs": [0, 2], "p95": 1.3, "max": 1.4},
      "predictor": {"scored_epochs": 3, "mape_mean": 0.2, "mape_max": 0.5}
    }
  })");
  telemetry::SloConfig tight;
  tight.max_congestion = 1.5;
  tight.solve_p99_ms = 100;
  tight.min_cache_hit_rate = 0.5;
  tight.max_regret = 1.2;
  tight.max_predictor_mape = 0.4;
  telemetry::SloConfig mixed;
  mixed.max_congestion = 2.5;
  mixed.solve_p99_ms = 100;
  mixed.max_predictor_mape = 0.6;
  for (const telemetry::SloConfig& config :
       {tight, mixed, telemetry::SloConfig{}}) {
    const std::vector<telemetry::SloBreach> offline =
        telemetry::evaluate_artifact_slo(artifact, config).evaluated;
    telemetry::SloTracker tracker(config);
    const std::vector<telemetry::SloBreach> online =
        tracker.check_epoch(0, 1.9, 125.0, 0.1, 1.4, 0.5);
    ASSERT_EQ(offline.size(), online.size());
    for (std::size_t i = 0; i < online.size(); ++i) {
      EXPECT_EQ(offline[i].slo, online[i].slo);
      EXPECT_EQ(offline[i].epoch, online[i].epoch);
      EXPECT_DOUBLE_EQ(offline[i].value, online[i].value);
      EXPECT_DOUBLE_EQ(offline[i].budget, online[i].budget);
    }
  }
  telemetry::SloTracker tracker(tight);
  EXPECT_EQ(tracker.check_epoch(0, 1.9, 125.0, 0.1, 1.4, 0.5).size(), 5u);
  reset_health();
}

TEST(Exporters, PrometheusTextExposesCountersAndSketchSummaries) {
  reset_health();
  const ScopedEnable enable;
  auto& sketch = telemetry::Registry::global().sketch("promtest/lat");
  for (int i = 1; i <= 100; ++i) sketch.observe(static_cast<double>(i));

  const std::string text = telemetry::prometheus_text();
  EXPECT_NE(text.find("# TYPE sor_promtest_lat summary"), std::string::npos);
  EXPECT_NE(text.find("sor_promtest_lat{quantile=\"0.99\"}"),
            std::string::npos);
  // A run total is the summary's exact _sum, and its event count the
  // _count: no separate counter family, and no _total copy.
  EXPECT_NE(text.find("sor_promtest_lat_sum 5050\n"), std::string::npos);
  EXPECT_NE(text.find("sor_promtest_lat_count 100"), std::string::npos);
  EXPECT_EQ(text.find(" counter\n"), std::string::npos);
  EXPECT_EQ(text.find("_total"), std::string::npos);
  reset_health();
}

// Ring overflow is not silent: the evictions show up in the health
// block's recorder figures.
TEST(Exporters, RecorderOverflowSurfacesInHealthBlock) {
  reset_health();
  const ScopedEnable enable;
  auto& recorder = telemetry::Recorder::global();
  const std::size_t saved = recorder.capacity();
  recorder.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    recorder.record("overflow/test", {{"i", i}});
  }
  const telemetry::JsonValue doc = telemetry::health_to_json();
  EXPECT_EQ(doc.at("recorder").at("recorded").as_number(), 10.0);
  EXPECT_EQ(doc.at("recorder").at("dropped").as_number(), 6.0);
  recorder.set_capacity(saved);
  recorder.clear();
  reset_health();
}

TEST(Exporters, HealthJsonCarriesSketchesWatermarksAndStatus) {
  reset_health();
  const ScopedEnable enable;
  auto& registry = telemetry::Registry::global();
  registry.sketch("jsontest/lat").observe(0.25);
  registry.record_breach({"max_congestion", 0, 2.0, 1.0});

  const telemetry::JsonValue doc = telemetry::health_to_json();
  EXPECT_TRUE(doc.at("enabled").as_bool());
  const telemetry::JsonValue& sketch =
      doc.at("sketches").at("jsontest/lat");
  EXPECT_EQ(sketch.at("count").as_number(), 1.0);
  // The sketch's exact max is the watermark; no second copy is exported.
  EXPECT_DOUBLE_EQ(sketch.at("max").as_number(), 0.25);
  // Nothing else: no watermarks and no per-epoch windows.
  const auto keys = [](const telemetry::JsonValue& object) {
    std::set<std::string> out;
    for (const auto& [key, value] : object.members()) out.insert(key);
    return out;
  };
  EXPECT_EQ(keys(doc), (std::set<std::string>{"enabled", "recorder",
                                              "sketches", "breaches",
                                              "status"}));
  EXPECT_EQ(doc.at("breaches").size(), 1u);
  EXPECT_EQ(doc.at("status").as_number(), 1.0);

  const telemetry::JsonValue line = telemetry::epoch_health_json(0);
  EXPECT_EQ(line.at("epoch").as_number(), 0.0);
  EXPECT_EQ(
      line.at("sketches").at("jsontest/lat").at("count").as_number(), 1.0);
  EXPECT_EQ(keys(line), (std::set<std::string>{"epoch", "sketches"}));
  reset_health();
}

// Satellite: the exposition format reserves backslash and newline inside
// HELP text. Telemetry keys are free-form, so a hostile key must come
// out sanitized in the metric name and escaped in HELP. (Every label
// value the exporter writes is a fixed literal.)
TEST(Exporters, PrometheusEscapesLabelValuesAndHelpStrings) {
  EXPECT_EQ(telemetry::prometheus_escape_help("a\\b\"c\nd"),
            "a\\\\b\"c\\nd");  // quotes are legal in HELP text

  reset_health();
  const ScopedEnable enable;
  telemetry::Registry::global().sketch("promesc/ev\"il\\na\nme").observe(1);
  const std::string text = telemetry::prometheus_text();
  EXPECT_NE(text.find("# HELP sor_promesc_ev_il_na_me quantile sketch for "
                      "telemetry key promesc/ev\"il\\\\na\\nme\n"),
            std::string::npos);
  // The raw newline in the key must NOT survive into the exposition (it
  // would split the HELP line in two).
  EXPECT_EQ(text.find("na\nme"), std::string::npos);
  reset_health();
}

TEST(Exporters, PrometheusExposesMemoryFigures) {
  const std::string text = telemetry::prometheus_text();
  EXPECT_NE(text.find("# TYPE sor_memory_rss_bytes gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("sor_memory_rss_bytes{kind=\"current\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sor_memory_rss_bytes{kind=\"peak\"}"),
            std::string::npos);
}

// Satellite: sketch edge cases — empty merges, non-positive and denormal
// observations, and single-observation quantiles (the domain contract
// documented in sketch.hpp).
TEST(Sketch, MergingEmptySnapshotsIsIdentity) {
  const telemetry::SketchSnapshot empty;
  const std::vector<telemetry::SketchSnapshot> empties(3);
  const telemetry::SketchSnapshot merged_empty =
      telemetry::merge_sketch_snapshots(empties);
  EXPECT_EQ(merged_empty.count, 0u);
  EXPECT_TRUE(merged_empty.buckets.empty());
  EXPECT_DOUBLE_EQ(telemetry::sketch_quantile(merged_empty, 0.99), 0.0);

  const ScopedEnable enable;
  telemetry::Sketch sketch;
  sketch.observe(2.0);
  sketch.observe(8.0);
  const telemetry::SketchSnapshot base = sketch.snapshot();
  const std::vector<telemetry::SketchSnapshot> mixed = {empty, base, empty};
  const telemetry::SketchSnapshot merged =
      telemetry::merge_sketch_snapshots(mixed);
  EXPECT_EQ(merged.count, base.count);
  EXPECT_EQ(merged.buckets, base.buckets);
  EXPECT_DOUBLE_EQ(merged.min, base.min);
  EXPECT_DOUBLE_EQ(merged.max, base.max);
  EXPECT_DOUBLE_EQ(merged.sum, base.sum);
}

TEST(Sketch, NonPositiveAndDenormalObservations) {
  const ScopedEnable enable;
  telemetry::Sketch sketch;
  sketch.observe(0.0);
  sketch.observe(-7.5);
  const telemetry::SketchSnapshot nonpositive = sketch.snapshot();
  ASSERT_EQ(nonpositive.buckets.size(), 1u);
  EXPECT_EQ(nonpositive.buckets[0].first, 0u);  // the zero bucket
  EXPECT_EQ(nonpositive.buckets[0].second, 2u);
  EXPECT_DOUBLE_EQ(telemetry::sketch_quantile(nonpositive, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(nonpositive.min, -7.5);  // min/max stay exact

  // Positive subnormals underflow into the first LOG bucket, not the
  // zero bucket: they are real positive observations.
  telemetry::Sketch tiny;
  tiny.observe(std::numeric_limits<double>::denorm_min());
  const telemetry::SketchSnapshot denormal = tiny.snapshot();
  ASSERT_EQ(denormal.buckets.size(), 1u);
  EXPECT_EQ(denormal.buckets[0].first, 1u);
  EXPECT_DOUBLE_EQ(telemetry::sketch_quantile(denormal, 0.5),
                   std::ldexp(1.0, telemetry::Sketch::kMinExponent));
}

TEST(Sketch, SingleObservationReportsItsBucketAtEveryQuantile) {
  const ScopedEnable enable;
  telemetry::Sketch sketch;
  sketch.observe(3.0);
  const telemetry::SketchSnapshot snap = sketch.snapshot();
  const double expected = telemetry::Sketch::bucket_lower_bound(
      telemetry::Sketch::bucket_index(3.0));
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(telemetry::sketch_quantile(snap, q), expected);
  }
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_DOUBLE_EQ(snap.min, 3.0);
}

// The memory block's checker invariants: peak >= current, and the two
// RSS figures are all it holds.
TEST(Memory, UsageAndJsonHoldCheckerInvariants) {
  const telemetry::MemoryUsage usage = telemetry::sample_memory_usage();
  EXPECT_GE(usage.peak_rss_bytes, usage.current_rss_bytes);
#ifdef __linux__
  EXPECT_GT(usage.current_rss_bytes, 0u);  // /proc/self/status exists
#endif

  const telemetry::JsonValue block = telemetry::memory_to_json();
  EXPECT_GE(block.at("peak_rss_bytes").as_number(),
            block.at("current_rss_bytes").as_number());
  EXPECT_EQ(block.members().size(), 2u);
}

// The one-registry contract over a whole control loop. Each test runs a
// short abilene loop with a RouteService attached and the shadow audit on
// every epoch, so every stage span (and lp/shadow) is exercised.
struct LoopRun {
  engine::EngineRunConfig config;
  serve::RouteService service;

  LoopRun() {
    config.source = "sp";
    config.trace.num_epochs = 4;
    config.engine.quality.shadow_every = 1;
    config.engine.service = &service;
  }

  /// Runs with the artifact cache off, so build_path_system really
  /// samples (a cache hit would skip the sampler span).
  engine::EngineRunOutput run() {
    const bool cache_was_enabled = cache::ArtifactCache::enabled();
    cache::ArtifactCache::set_enabled(false);
    engine::EngineRunOutput out = engine::run_from_config(config);
    cache::ArtifactCache::set_enabled(cache_was_enabled);
    return out;
  }
};

/// Guards the gated benchmark's peak_rss_mb: with telemetry off, a loop
/// records nothing at all — no sketch moves, and no span node (so no
/// <span>_seconds sketch) is created.
TEST(OneTelemetryLayer, DisabledControlLoopRecordsNothing) {
  reset_health();
  telemetry::reset_spans();
  std::set<std::string> sketches_before;
  for (const auto& [name, snap] : telemetry::Registry::global().sketches()) {
    sketches_before.insert(name);
  }
  {
    const ScopedEnable disable(false);
    LoopRun loop;
    EXPECT_EQ(loop.run().result.epochs.size(), 4u);
  }
  EXPECT_TRUE(telemetry::snapshot_spans().empty());
  for (const auto& [name, snap] : telemetry::Registry::global().sketches()) {
    EXPECT_EQ(snap.count, 0u) << name;
    if (name.ends_with("_seconds")) {
      EXPECT_TRUE(sketches_before.count(name))
          << "telemetry-off loop created sketch " << name;
    }
  }
}

/// With telemetry on, every span perfbench's traced run reads exists,
/// plus lp/shadow, and each span's <name>_seconds sketch counts exactly
/// the span's invocations (summed over all its parents).
TEST(OneTelemetryLayer, EverySpanFeedsItsSecondsSketch) {
  reset_health();
  telemetry::reset_spans();
  const ScopedEnable enable;
  LoopRun loop;
  loop.run();

  telemetry::JsonValue doc = telemetry::JsonValue::object();
  doc.set("spans", telemetry::spans_to_json());
  const auto totals = telemetry::span_totals(doc);
  for (const char* span :
       {"sampler/sample_path_system", "engine/repair", "engine/predict",
        "engine/solve", "engine/publish", "engine/shadow", "lp/shadow"}) {
    const auto it = totals.find(span);
    ASSERT_NE(it, totals.end()) << span;
    EXPECT_GT(it->second.calls, 0.0) << span;
  }
  EXPECT_EQ(totals.at("engine/shadow").calls, 4.0);
  std::map<std::string, std::uint64_t> sketch_counts;
  for (const auto& [name, snap] : telemetry::Registry::global().sketches()) {
    sketch_counts[name] = snap.count;
  }
  for (const auto& [span, total] : totals) {
    const auto it = sketch_counts.find(span + "_seconds");
    ASSERT_NE(it, sketch_counts.end()) << span;
    EXPECT_EQ(static_cast<double>(it->second), total.calls) << span;
  }
  reset_health();
}

// One name is one metric: the exposition format allows one # TYPE line
// per metric name. And the registry has one metric kind: every family the
// served loop exports is a sketch summary, except the process RSS, the
// one gauge family; no counter is declared at all.
TEST(OneTelemetryLayer, PrometheusDeclaresEachMetricOnce) {
  reset_health();
  const ScopedEnable enable;
  LoopRun loop;
  loop.run();

  const std::string text = telemetry::prometheus_text();
  std::set<std::string> declared;
  std::istringstream lines(text);
  std::string line;
  std::size_t type_lines = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    ++type_lines;
    const std::size_t name_end = line.find(' ', 7);
    const std::string name = line.substr(7, name_end - 7);
    const std::string type = line.substr(name_end + 1);
    EXPECT_TRUE(declared.insert(name).second) << "repeated # TYPE " << name;
    EXPECT_NE(type, "counter") << line;
    if (type == "gauge") {
      EXPECT_EQ(name, "sor_memory_rss_bytes") << line;
    }
  }
  EXPECT_GT(type_lines, 0u);
  EXPECT_TRUE(declared.count("sor_engine_congestion"));
  EXPECT_TRUE(declared.count("sor_quality_regret"));
  EXPECT_TRUE(declared.count("sor_memory_rss_bytes"));
  EXPECT_FALSE(declared.count("sor_engine_last_congestion"));
  reset_health();
}

}  // namespace
}  // namespace sor
