// Unit tests for the routing-artifact cache: graph fingerprints, the
// binary payload codec, the byte-bounded LRU memory tier, the checksummed
// disk tier (including corruption quarantine), the SOR_CACHE kill switch,
// and the typed serializers (Räcke ensembles, path systems) whose
// round-trips must be bit-identical.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "cache/binary.hpp"
#include "cache/cache.hpp"
#include "core/path_system_io.hpp"
#include "core/sampler.hpp"
#include "flow/gomory_hu.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/valiant.hpp"
#include "tree/ensemble_io.hpp"
#include "util/check.hpp"

namespace sor {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sor_cache_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(GraphFingerprint, IdenticalGraphsMatch) {
  const Graph a = make_grid(4, 5);
  const Graph b = make_grid(4, 5);
  EXPECT_EQ(fingerprint_graph(a), fingerprint_graph(b));
  EXPECT_EQ(fingerprint_graph(a).hex(), fingerprint_graph(b).hex());
}

TEST(GraphFingerprint, CapacityChangesDigest) {
  Graph a(3);
  a.add_edge(0, 1, 1.0);
  a.add_edge(1, 2, 1.0);
  Graph b(3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  EXPECT_NE(fingerprint_graph(a).digest, fingerprint_graph(b).digest);
}

TEST(GraphFingerprint, EdgeOrderChangesDigest) {
  // Edge ids are load-bearing (activation masks, weak routing), so
  // insertion order is part of the identity.
  Graph a(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  Graph b(3);
  b.add_edge(1, 2);
  b.add_edge(0, 1);
  EXPECT_NE(fingerprint_graph(a).digest, fingerprint_graph(b).digest);
}

TEST(BinaryCodec, RoundTripsEveryType) {
  cache::BinaryWriter w;
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.str("hello\0world");
  w.u32_vec({1, 2, 3});
  w.f64_vec({0.1, -2.5e300});
  cache::BinaryReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.str(), "hello\0world");
  EXPECT_EQ(r.u32_vec(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{0.1, -2.5e300}));
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(BinaryCodec, TruncationThrows) {
  cache::BinaryWriter w;
  w.u64(7);
  cache::BinaryReader r(std::string_view(w.bytes()).substr(0, 5));
  EXPECT_THROW(r.u64(), CheckError);
}

TEST(BinaryCodec, TrailingBytesDetected) {
  cache::BinaryWriter w;
  w.u32(1);
  w.u32(2);
  cache::BinaryReader r(w.bytes());
  r.u32();
  EXPECT_THROW(r.expect_done(), CheckError);
}

cache::CacheKey key_for(const Graph& g, const std::string& klass,
                        std::uint64_t params) {
  return cache::CacheKey{klass, fingerprint_graph(g), params};
}

TEST(ArtifactCache, MemoryHitAndMiss) {
  cache::ArtifactCache cache;
  const Graph g = make_ring(5);
  const cache::CacheKey key = key_for(g, "test", 1);
  EXPECT_EQ(cache.get(key), nullptr);
  cache.put(key, "payload");
  const auto hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "payload");
  const cache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 7u);
}

TEST(ArtifactCache, EvictsLruFirstWhenOverBudget) {
  cache::ArtifactCache::Options options;
  options.memory_budget_bytes = 10;
  cache::ArtifactCache cache(options);
  const Graph g = make_ring(5);
  cache.put(key_for(g, "a", 0), "aaaa");  // 4 bytes
  cache.put(key_for(g, "b", 0), "bbbb");  // 8 bytes total
  EXPECT_NE(cache.get(key_for(g, "a", 0)), nullptr);  // a now MRU
  cache.put(key_for(g, "c", 0), "cccc");  // 12 bytes: evict LRU = b
  EXPECT_EQ(cache.get(key_for(g, "b", 0)), nullptr);
  EXPECT_NE(cache.get(key_for(g, "a", 0)), nullptr);
  EXPECT_NE(cache.get(key_for(g, "c", 0)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ArtifactCache, OversizedPayloadBypassesMemoryTier) {
  cache::ArtifactCache::Options options;
  options.memory_budget_bytes = 4;
  cache::ArtifactCache cache(options);
  const Graph g = make_ring(5);
  cache.put(key_for(g, "big", 0), "way too large");
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ArtifactCache, EvictedEntryBlobStaysValid) {
  cache::ArtifactCache::Options options;
  options.memory_budget_bytes = 8;
  cache::ArtifactCache cache(options);
  const Graph g = make_ring(5);
  cache.put(key_for(g, "a", 0), "aaaaaa");
  const auto blob = cache.get(key_for(g, "a", 0));
  cache.put(key_for(g, "b", 0), "bbbbbb");  // evicts a
  EXPECT_EQ(cache.get(key_for(g, "a", 0)), nullptr);
  EXPECT_EQ(*blob, "aaaaaa");  // shared_ptr keeps the payload alive
}

TEST(ArtifactCache, DiskRoundTripAcrossInstances) {
  const std::string dir = temp_dir("disk");
  const Graph g = make_grid(3, 3);
  const cache::CacheKey key = key_for(g, "path_system", 42);
  {
    cache::ArtifactCache::Options options;
    options.directory = dir;
    cache::ArtifactCache writer(options);
    writer.put(key, "persisted bytes");
  }
  cache::ArtifactCache::Options options;
  options.directory = dir;
  cache::ArtifactCache reader(options);
  const auto hit = reader.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "persisted bytes");
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // Promoted into memory: second get is a memory hit.
  reader.get(key);
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST(ArtifactCache, CorruptDiskEntryIsQuarantinedNotFatal) {
  const std::string dir = temp_dir("corrupt");
  const Graph g = make_grid(3, 3);
  const cache::CacheKey key = key_for(g, "gomory_hu", 0);
  cache::ArtifactCache::Options options;
  options.directory = dir;
  {
    cache::ArtifactCache writer(options);
    writer.put(key, "good payload");
  }
  // Flip a payload byte on disk.
  const std::string path = dir + "/" + key.id() + ".sorc";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);
    f.put('X');
  }
  cache::ArtifactCache reader(options);
  EXPECT_EQ(reader.get(key), nullptr);  // miss, not crash
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  // A second lookup is a clean miss (no re-quarantine of the same file).
  EXPECT_EQ(reader.get(key), nullptr);
}

TEST(ArtifactCache, TruncatedDiskEntryIsQuarantined) {
  const std::string dir = temp_dir("truncated");
  const Graph g = make_grid(3, 3);
  const cache::CacheKey key = key_for(g, "x", 0);
  cache::ArtifactCache::Options options;
  options.directory = dir;
  {
    cache::ArtifactCache writer(options);
    writer.put(key, "a payload long enough to truncate");
  }
  const std::string path = dir + "/" + key.id() + ".sorc";
  fs::resize_file(path, 10);
  cache::ArtifactCache reader(options);
  EXPECT_EQ(reader.get(key), nullptr);
  EXPECT_EQ(reader.stats().corrupt, 1u);
}

TEST(ArtifactCache, KillSwitchDisablesBothTiers) {
  cache::ArtifactCache cache;
  const Graph g = make_ring(5);
  const cache::CacheKey key = key_for(g, "k", 0);
  cache::ArtifactCache::set_enabled(false);
  cache.put(key, "ignored");
  EXPECT_EQ(cache.get(key), nullptr);
  EXPECT_EQ(cache.stats().puts, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);  // disabled lookups are not misses
  cache::ArtifactCache::set_enabled(true);
  EXPECT_EQ(cache.get(key), nullptr);
  cache.put(key, "stored");
  EXPECT_NE(cache.get(key), nullptr);
}

TEST(ArtifactCache, ConcurrentMixedAccessIsSafe) {
  // Exercised under SOR_SANITIZE=thread in CI: concurrent put/get/stats
  // over a tiny budget forces constant eviction churn.
  cache::ArtifactCache::Options options;
  options.memory_budget_bytes = 1024;
  cache::ArtifactCache cache(options);
  const Graph g = make_ring(6);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &g, t] {
      for (int i = 0; i < 200; ++i) {
        const cache::CacheKey key =
            key_for(g, "stress", static_cast<std::uint64_t>((t * 7 + i) % 13));
        if (i % 3 == 0) {
          cache.put(key, std::string(64, static_cast<char>('a' + t)));
        } else {
          const auto blob = cache.get(key);
          if (blob != nullptr) {
            EXPECT_EQ(blob->size(), 64u);
          }
        }
        if (i % 50 == 0) cache.stats();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(cache.stats().bytes, 1024u);
}

TEST(SampleOptions, GomoryHuFromDifferentGraphThrows) {
  const Graph wrong = make_grid(4, 3);
  const GomoryHuTree wrong_tree(wrong);
  const Graph cube = make_hypercube(3);
  const ValiantHypercube cube_routing(cube, 3);
  SampleOptions options;
  options.lambda_cap = 4;
  options.gomory_hu = &wrong_tree;
  const std::vector<VertexPair> pairs = {VertexPair{0, 5}};
  EXPECT_THROW(sample_path_system(cube_routing, pairs, options, 1), CheckError);
  // The right graph's tree is accepted.
  const GomoryHuTree right_tree(cube);
  options.gomory_hu = &right_tree;
  EXPECT_NO_THROW(sample_path_system(cube_routing, pairs, options, 1));
}

TEST(RaeckeSerialization, RoundTripRoutesIdentically) {
  const Graph g = make_grid(4, 4);
  RaeckeOptions options;
  options.num_trees = 4;
  options.seed = 11;
  const RaeckeEnsemble built(g, options);
  const RaeckeEnsemble restored =
      deserialize_raecke_ensemble(g, serialize_raecke_ensemble(built));
  ASSERT_EQ(restored.num_trees(), built.num_trees());
  for (std::size_t i = 0; i < built.num_trees(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.tree_weight(i)),
              std::bit_cast<std::uint64_t>(built.tree_weight(i)));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.mixture_max_relative_load()),
            std::bit_cast<std::uint64_t>(built.mixture_max_relative_load()));
  // Same seed stream → identical sampled paths.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng_a(seed);
    Rng rng_b(seed);
    EXPECT_EQ(built.sample_path(0, 15, rng_a), restored.sample_path(0, 15, rng_b));
  }
}

TEST(RaeckeSerialization, CachedBuildMatchesUncachedBitIdentically) {
  const Graph g = make_grid(3, 5);
  RaeckeOptions options;
  options.num_trees = 3;
  options.seed = 5;
  cache::ArtifactCache::global().clear();
  cache::ArtifactCache::set_enabled(false);
  const RaeckeEnsemble uncached(g, options);
  cache::ArtifactCache::set_enabled(true);
  const RaeckeEnsemble cold = build_raecke_ensemble_cached(g, options);
  const RaeckeEnsemble warm = build_raecke_ensemble_cached(g, options);
  for (const RaeckeEnsemble* e : {&cold, &warm}) {
    ASSERT_EQ(e->num_trees(), uncached.num_trees());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e->mixture_max_relative_load()),
              std::bit_cast<std::uint64_t>(uncached.mixture_max_relative_load()));
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng_a(seed);
      Rng rng_b(seed);
      EXPECT_EQ(uncached.sample_path(2, 12, rng_a),
                e->sample_path(2, 12, rng_b));
    }
  }
}

TEST(PathSystemSerialization, PreservesOrderAndMultiplicity) {
  const Graph g = make_ring(6);
  PathSystem system;
  // Two candidates for (0,3), one duplicated — multiset semantics.
  system.add(Path{0, 3, {0, 1, 2}});
  system.add(Path{3, 0, {3, 4, 5}});  // reversed on add
  system.add(Path{0, 3, {0, 1, 2}});
  system.add(Path{1, 2, {1}});
  const PathSystem restored =
      deserialize_path_system(serialize_path_system(system));
  EXPECT_EQ(restored.num_pairs(), system.num_pairs());
  EXPECT_EQ(restored.total_paths(), system.total_paths());
  const auto original = system.paths(0, 3);
  const auto round = restored.paths(0, 3);
  ASSERT_EQ(round.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(round[i], original[i]);  // exact per-pair insertion order
  }
  // Serialization is canonical: serialize(deserialize(x)) == x.
  EXPECT_EQ(serialize_path_system(restored), serialize_path_system(system));
}

TEST(SamplerCache, WarmSampleIsBitIdenticalToCold) {
  const Graph g = make_hypercube(4);
  const ValiantHypercube routing(g, 4);
  SampleOptions options;
  options.k = 3;
  cache::ArtifactCache::global().clear();
  cache::ArtifactCache::set_enabled(false);
  const PathSystem baseline = sample_path_system_all_pairs(routing, options, 9);
  cache::ArtifactCache::set_enabled(true);
  const PathSystem cold = sample_path_system_all_pairs(routing, options, 9);
  const auto stats_after_cold = cache::ArtifactCache::global().stats();
  const PathSystem warm = sample_path_system_all_pairs(routing, options, 9);
  const auto stats_after_warm = cache::ArtifactCache::global().stats();
  EXPECT_GT(stats_after_warm.hits, stats_after_cold.hits);
  EXPECT_EQ(serialize_path_system(cold), serialize_path_system(baseline));
  EXPECT_EQ(serialize_path_system(warm), serialize_path_system(baseline));
}

TEST(SamplerCache, DifferentSeedsAreDistinctArtifacts) {
  const Graph g = make_hypercube(3);
  const ValiantHypercube routing(g, 3);
  SampleOptions options;
  options.k = 2;
  cache::ArtifactCache::global().clear();
  cache::ArtifactCache::set_enabled(true);
  const PathSystem a = sample_path_system_all_pairs(routing, options, 1);
  const PathSystem b = sample_path_system_all_pairs(routing, options, 2);
  EXPECT_NE(serialize_path_system(a), serialize_path_system(b));
}

TEST(CacheKey, IdEncodesClassShapeAndParams) {
  const Graph g = make_grid(2, 3);
  const cache::CacheKey key{"path_system", fingerprint_graph(g), 0xabcdULL};
  const std::string id = key.id();
  EXPECT_NE(id.find("path_system-"), std::string::npos);
  EXPECT_NE(id.find("6x7-"), std::string::npos);  // 6 vertices, 7 edges
  EXPECT_NE(id.find("000000000000abcd"), std::string::npos);
}

}  // namespace
}  // namespace sor
