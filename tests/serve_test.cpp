// Unit + concurrency tests for src/serve: RouteSnapshot build/lookup
// semantics, content-determined serialization, RouteService publish/
// lookup/ingestion, controller integration (one snapshot per epoch,
// digest neutrality, demand-update folding), the end-to-end byte-identity
// contract against route_fractional, and the snapshot-swap stress runs
// the TSan build (-DSOR_SANITIZE=thread) checks for races and torn
// tables.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "demand/demand.hpp"
#include "engine/replay.hpp"
#include "graph/generators.hpp"
#include "graph/path.hpp"
#include "grouping_locale.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

namespace sor::serve {
namespace {

Path ring_path(const Graph& g, std::initializer_list<Vertex> vertices) {
  return path_from_vertices(g, std::vector<Vertex>(vertices));
}

// A small hand-built routing table on C6: pair {1,4} split across the two
// arcs, pair {0,2} on a single path plus a zero-fraction row the table
// must drop. The rows view the paths it owns.
struct RingRows {
  std::vector<Path> paths;
  std::vector<SplitRow> rows;

  explicit RingRows(const Graph& g)
      : paths{ring_path(g, {1, 2, 3, 4}), ring_path(g, {1, 0, 5, 4}),
              ring_path(g, {0, 1, 2}), ring_path(g, {0, 5, 4, 3, 2})},
        rows{{paths[0], 0.75},
             {paths[1], 0.25},
             {paths[2], 1.0},
             {paths[3], 0.0}} {}
};

SplitTable ring_split(const Graph& g) { return SplitTable(RingRows(g).rows); }

TEST(Snapshot, LookupAnswersBothOrientationsAndMisses) {
  const Graph g = make_ring(6);
  const RouteSnapshot snap = RouteSnapshot::build(7, ring_split(g));
  EXPECT_EQ(snap.epoch(), 7u);
  EXPECT_EQ(snap.num_pairs(), 2u);
  // The zero-fraction {0,2} row is dropped.
  EXPECT_EQ(snap.num_paths(), 3u);

  const LookupResult forward = snap.lookup(1, 4);
  ASSERT_TRUE(forward.found);
  EXPECT_FALSE(forward.reverse);
  EXPECT_EQ(forward.epoch, 7u);
  ASSERT_EQ(forward.paths.size(), 2u);
  // Rows come back in path_lexicographic_less order.
  EXPECT_TRUE(path_lexicographic_less(forward.paths[0].path,
                                      forward.paths[1].path));
  EXPECT_NEAR(forward.fraction_sum(), 1.0, 1e-12);

  const LookupResult backward = snap.lookup(4, 1);
  ASSERT_TRUE(backward.found);
  EXPECT_TRUE(backward.reverse);
  ASSERT_EQ(backward.paths.size(), 2u);
  for (const Path& p : backward.oriented_paths()) {
    EXPECT_EQ(p.src, 4u);
    EXPECT_EQ(p.dst, 1u);
  }

  EXPECT_FALSE(snap.lookup(0, 3).found);
  // Out-of-range vertices miss safely rather than crash.
  EXPECT_FALSE(snap.lookup(100, 101).found);
}

TEST(Snapshot, SerializeIsContentDeterminedNotInsertionOrdered) {
  const Graph g = make_ring(6);
  const RingRows ring(g);
  const std::vector<SplitRow>& rows = ring.rows;
  // Same content, reversed insertion order.
  const RouteSnapshot a = RouteSnapshot::build(3, SplitTable(rows));
  const RouteSnapshot b = RouteSnapshot::build(
      3, SplitTable(std::vector<SplitRow>(rows.rbegin(), rows.rend())));
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(a.digest(), b.digest());

  // Any content change shows up in the digest.
  std::vector<SplitRow> changed = rows;
  changed[0].fraction = 0.7500001;
  EXPECT_NE(RouteSnapshot::build(3, SplitTable(changed)).digest(),
            a.digest());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Ids past 10^4 and up to 2^32 - 2, an epoch past 2^32, fractions whose
// bits print shorter than 16 hex digits, and two equal paths the table
// merges. SplitTable checks only canonical endpoints, so the paths need
// no graph.
RouteSnapshot wide_snapshot() {
  const Path wide{10001, 12345, {10000, 65536}};
  const Path far{20000, 20001, {99999}};
  const Path high{10001, 12345, {4294967294u}};
  const std::vector<SplitRow> rows = {
      {wide, 0.25},
      {far, std::numeric_limits<double>::denorm_min()},
      {high, std::ldexp(1.0, -1000)},
      {wide, 0.5}};
  return RouteSnapshot::build(std::uint64_t{1} << 32, SplitTable(rows));
}

TEST(Snapshot, DigestIsFnv1aOfTheSerializedText) {
  const RouteSnapshot snap = wide_snapshot();
  const std::string text = snap.serialize();
  EXPECT_EQ(text,
            "sor-route-snapshot v1\n"
            "epoch 4294967296\n"
            "pairs 2 paths 3\n"
            "pair 10001 12345 2\n"
            "path 3fe8000000000000 10000 65536\n"
            "path 170000000000000 4294967294\n"
            "pair 20000 20001 1\n"
            "path 1 99999\n");
  EXPECT_EQ(snap.digest(), fnv1a(text));

  const Graph g = make_ring(6);
  const RouteSnapshot ring = RouteSnapshot::build(7, ring_split(g));
  EXPECT_EQ(ring.digest(), fnv1a(ring.serialize()));
}

TEST(Snapshot, BytesIgnoreTheGlobalLocale) {
  const std::string text = wide_snapshot().serialize();
  const std::uint64_t digest = wide_snapshot().digest();
  const ScopedGroupingLocale grouping;
  const RouteSnapshot snap = wide_snapshot();
  EXPECT_EQ(snap.serialize(), text);
  EXPECT_EQ(snap.digest(), digest);
}

TEST(Service, LookupBeforeFirstPublishIsAMiss) {
  RouteService service;
  EXPECT_EQ(service.snapshot(), nullptr);
  const RouteService::Answer answer = service.lookup(0, 1);
  EXPECT_EQ(answer.snapshot, nullptr);
  EXPECT_FALSE(answer.result.found);
  EXPECT_EQ(service.lookups(), 1u);
  EXPECT_EQ(service.misses(), 1u);
}

TEST(Service, PublishSwapsTheAnsweringSnapshot) {
  const Graph g = make_ring(6);
  RouteService service;
  service.publish(std::make_shared<const RouteSnapshot>(
      RouteSnapshot::build(1, ring_split(g))));
  const RouteService::Answer first = service.lookup(1, 4);
  ASSERT_TRUE(first.result.found);
  EXPECT_EQ(first.result.epoch, 1u);

  // Swap in a new epoch; subsequent lookups answer from it, while the
  // old answer's guard keeps the retired snapshot's spans alive.
  service.publish(std::make_shared<const RouteSnapshot>(
      RouteSnapshot::build(2, ring_split(g))));
  const RouteService::Answer second = service.lookup(1, 4);
  ASSERT_TRUE(second.result.found);
  EXPECT_EQ(second.result.epoch, 2u);
  EXPECT_EQ(first.result.epoch, 1u);
  EXPECT_NEAR(first.result.fraction_sum(), 1.0, 1e-12);

  EXPECT_EQ(service.publishes(), 2u);
  EXPECT_EQ(service.lookups(), 2u);
  EXPECT_EQ(service.misses(), 0u);
}

TEST(Service, IngestionDrainsTheWholeBatchExactlyOnce) {
  RouteService service;
  service.enqueue_update({0, 1, 2.0});
  service.enqueue_update({2, 3, 0.5});
  service.enqueue_update({1, 4, 1.25});
  EXPECT_EQ(service.updates_enqueued(), 3u);
  EXPECT_EQ(service.updates_drained(), 0u);

  const std::vector<DemandUpdate> batch = service.drain_updates();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].src, 0u);
  EXPECT_EQ(batch[0].dst, 1u);
  EXPECT_EQ(batch[0].amount, 2.0);
  EXPECT_EQ(batch[2].amount, 1.25);
  EXPECT_EQ(service.updates_drained(), 3u);
  EXPECT_TRUE(service.drain_updates().empty());
  EXPECT_EQ(service.updates_drained(), 3u);
}

engine::EngineRunConfig serve_config() {
  engine::EngineRunConfig config;
  config.topology = "wan:abilene";
  config.source = "sp";  // fast, deterministic path source for unit tests
  config.k = 3;
  config.seed = 29;
  config.trace.num_epochs = 6;
  config.stream.total = 32.0;
  return config;
}

TEST(ControllerServe, PublishesOneSnapshotPerEpoch) {
  engine::EngineRunConfig config = serve_config();
  RouteService service;
  config.engine.service = &service;
  const engine::EngineRunOutput out = engine::run_from_config(config);
  EXPECT_EQ(service.publishes(), out.result.epochs.size());
  const std::shared_ptr<const RouteSnapshot> snap = service.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), out.result.epochs.back().epoch);
  EXPECT_GT(snap->num_pairs(), 0u);
  EXPECT_GT(snap->num_paths(), 0u);
}

TEST(ControllerServe, AttachedServiceKeepsTheDigestByteIdentical) {
  // Publishing is observation only: a run with a service attached (and no
  // enqueued updates) must replay-digest byte-identically to one without.
  const engine::EngineRunConfig plain = serve_config();
  const engine::EngineRunOutput without = engine::run_from_config(plain);

  engine::EngineRunConfig with_service = serve_config();
  RouteService service;
  with_service.engine.service = &service;
  const engine::EngineRunOutput with = engine::run_from_config(with_service);

  EXPECT_EQ(engine::digest_json(with.record, with.result).dump(2),
            engine::digest_json(without.record, without.result).dump(2));
}

TEST(ControllerServe, DrainedUpdatesFoldIntoTheRealizedMatrix) {
  const engine::EngineRunOutput base =
      engine::run_from_config(serve_config());

  engine::EngineRunConfig config = serve_config();
  RouteService service;
  config.engine.service = &service;
  service.enqueue_update({0, 1, 5.0});
  const engine::EngineRunOutput updated = engine::run_from_config(config);

  EXPECT_EQ(service.updates_drained(), 1u);
  ASSERT_FALSE(updated.result.epochs.empty());
  // The pre-run update lands in epoch 0's realized matrix and nowhere
  // else (nothing further was enqueued).
  EXPECT_NEAR(updated.result.epochs[0].realized_total,
              base.result.epochs[0].realized_total + 5.0, 1e-9);
  for (std::size_t t = 1; t < base.result.epochs.size(); ++t) {
    EXPECT_EQ(updated.result.epochs[t].realized_total,
              base.result.epochs[t].realized_total);
  }
}

TEST(Identity, PublishedSnapshotMatchesRouteFractional) {
  const engine::EngineRunConfig config = serve_config();
  const Graph g = engine::build_topology(config.topology);
  const PathSystem system = engine::build_path_system(g, config);
  const Demand demand =
      engine::DemandStream(g, config.stream, config.seed).at_epoch(0);
  EXPECT_TRUE(snapshot_matches_route_fractional(g, system, demand,
                                                config.engine.epsilon));
}

ServeLoadReport run_small_load(std::size_t update_every) {
  const engine::EngineRunConfig config = serve_config();
  const Graph g = engine::build_topology(config.topology);
  const PathSystem system = engine::build_path_system(g, config);
  const engine::EventTrace trace =
      engine::generate_trace(g, config.trace, config.seed);
  ServeLoadOptions load;
  load.readers = 4;
  load.min_lookups_per_reader = 500;
  load.update_every = update_every;
  return run_serve_load(g, system, trace, config.stream, config.engine,
                        config.seed, load);
}

TEST(Concurrency, ReadersNeverSeeATornTable) {
  const ServeLoadReport report = run_small_load(/*update_every=*/128);
  EXPECT_EQ(report.torn, 0u);
  EXPECT_EQ(report.snapshots_published, report.result.epochs.size());
  EXPECT_GE(report.lookups, 4u * 500u);
  EXPECT_EQ(report.hits + report.misses, report.lookups);
  ASSERT_NE(report.final_snapshot, nullptr);
  EXPECT_EQ(report.final_snapshot->epoch(),
            report.result.epochs.back().epoch);
  // Every drained update was applied before its epoch's solve; anything
  // enqueued after the final drain legitimately stays queued.
  EXPECT_LE(report.updates_drained, report.updates_enqueued);
}

// FNV-1a over an answer's deterministic content; the aggregation-identity
// test folds these per-query digests in query order.
std::uint64_t answer_digest(std::uint64_t h, Vertex s, Vertex t,
                            const LookupResult& r) {
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(s);
  mix(t);
  mix(r.found ? 1 : 0);
  if (!r.found) return h;
  mix(r.epoch);
  for (const SplitRow row : r.paths) {
    mix(std::bit_cast<std::uint64_t>(row.fraction));
    mix(row.path.src);
    mix(row.path.dst);
    for (const EdgeId e : row.path.edges) mix(e);
  }
  return h;
}

TEST(Concurrency, AggregatedLookupsMatchSingleThreadByteForByte) {
  // The same deterministic query list, answered (a) sequentially and
  // (b) striped across 4 threads with per-stripe digests combined in
  // stripe order, must produce identical bytes — serving answers are a
  // pure function of the snapshot, not of thread placement.
  const ServeLoadReport report = run_small_load(/*update_every=*/0);
  ASSERT_NE(report.final_snapshot, nullptr);
  const RouteSnapshot& snap = *report.final_snapshot;

  const engine::EngineRunConfig config = serve_config();
  const Graph g = engine::build_topology(config.topology);
  const PathSystem system = engine::build_path_system(g, config);
  std::vector<std::pair<Vertex, Vertex>> queries;
  for (std::size_t rep = 0; rep < 50; ++rep) {
    for (const VertexPair& pair : system.pairs()) {
      queries.emplace_back(pair.a, pair.b);
      queries.emplace_back(pair.b, pair.a);
    }
  }

  constexpr std::size_t kThreads = 4;
  const auto stripe_digest = [&](std::size_t stripe) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = stripe; i < queries.size(); i += kThreads) {
      h = answer_digest(h, queries[i].first, queries[i].second,
                        snap.lookup(queries[i].first, queries[i].second));
    }
    return h;
  };

  std::vector<std::uint64_t> sequential(kThreads);
  for (std::size_t s = 0; s < kThreads; ++s) sequential[s] = stripe_digest(s);

  std::vector<std::uint64_t> threaded(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t s = 0; s < kThreads; ++s) {
      workers.emplace_back([&, s] { threaded[s] = stripe_digest(s); });
    }
    for (std::thread& w : workers) w.join();
  }
  EXPECT_EQ(threaded, sequential);
}

TEST(Concurrency, RawServiceStressPublishLookupIngest) {
  // Pure RouteService stress with every API hammered from its own
  // threads — the TSan build asserts the publish/lookup/ingest paths are
  // race-free; release builds still check the counters reconcile.
  const Graph g = make_ring(6);
  RouteService service;
  std::atomic<bool> done{false};
  constexpr std::uint64_t kPublishes = 200;

  std::thread publisher([&] {
    for (std::uint64_t e = 0; e < kPublishes; ++e) {
      service.publish(std::make_shared<const RouteSnapshot>(
          RouteSnapshot::build(e, ring_split(g))));
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> workers;
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&] {
      std::uint64_t answered = 0;
      while (!done.load(std::memory_order_acquire) || answered < 100) {
        const RouteService::Answer answer = service.lookup(1, 4);
        if (answer.result.found) {
          ASSERT_LT(answer.result.epoch, kPublishes);
          ASSERT_EQ(answer.result.paths.size(), 2u);
        }
        ++answered;
      }
    });
  }
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 500; ++i) {
        service.enqueue_update(
            {static_cast<Vertex>(w), static_cast<Vertex>(3 + i % 2), 0.25});
      }
    });
  }
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)service.drain_updates();
    }
  });

  publisher.join();
  for (std::thread& w : workers) w.join();
  drainer.join();

  EXPECT_EQ(service.publishes(), kPublishes);
  EXPECT_EQ(service.updates_enqueued(), 1000u);
  const std::vector<DemandUpdate> rest = service.drain_updates();
  EXPECT_EQ(service.updates_drained(), service.updates_enqueued());
  EXPECT_LE(rest.size(), 1000u);
  ASSERT_NE(service.snapshot(), nullptr);
  EXPECT_EQ(service.snapshot()->epoch(), kPublishes - 1);
}

}  // namespace
}  // namespace sor::serve
