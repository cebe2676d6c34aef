#pragma once

// Content-addressed routing-artifact cache.
//
// The paper's construction (Theorem 5.3) front-loads all the expensive
// work: build a β-competitive oblivious routing once, λ·k-sample paths
// per pair once, then answer every demand with a cheap restricted LP.
// This cache makes that split real across runs and processes: Räcke/FRT
// tree ensembles (src/tree), Gomory–Hu cut trees (src/flow), and sampled
// PathSystems (src/core) are stored under a structural key —
// GraphFingerprint plus a digest of every construction parameter — and
// reused instead of rebuilt. Because every producer is deterministic in
// (graph, params, seed), a cache hit is bit-identical to a rebuild; the
// cache can never change routing output, only skip work.
//
// Two tiers:
//  * in-memory LRU, byte-bounded and thread-safe — hot in-process reuse
//    (e.g. an EpochController replay re-sampling the same system);
//  * optional on-disk tier (set_directory / --cache-dir / SOR_CACHE_DIR)
//    with versioned entries, payload checksums, and atomic temp+rename
//    writes. Corrupt or truncated entries are quarantined (renamed to
//    <entry>.corrupt) and treated as misses, never crashes.
//
// Kill switch: SOR_CACHE=off (or 0) disables all lookups and stores,
// mirroring SOR_TELEMETRY; set_enabled() overrides for tests. Hit/miss/
// eviction counts live in CacheStats alone, whatever SOR_TELEMETRY says:
// the bench artifact's "cache" block, the run ledger and the SLO cache
// floor all read stats().

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "graph/fingerprint.hpp"
#include "util/stats.hpp"

namespace sor::cache {

/// Identifies one artifact: class tag ("path_system", "racke_ensemble",
/// "gomory_hu"), the graph it was built on, and a digest of every other
/// input (options, seed, pair set, ...). Build the digest with mix_hash.
struct CacheKey {
  std::string klass;
  GraphFingerprint graph;
  std::uint64_t params = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;

  /// Stable id string — the memory-tier map key and the disk file stem,
  /// e.g. "path_system-16x32-<graphhex>-<paramshex>".
  std::string id() const;
};

struct CacheStats {
  std::uint64_t hits = 0;         // memory-tier hits
  std::uint64_t misses = 0;       // full misses (both tiers)
  std::uint64_t disk_hits = 0;    // memory miss served from disk
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt = 0;      // quarantined disk entries
  std::uint64_t bytes = 0;        // memory tier resident bytes
  std::uint64_t entries = 0;      // memory tier entry count

  /// Lookups served by either tier over all lookups; -1 when there was no
  /// lookup (sor::hit_rate).
  double hit_rate() const {
    return sor::hit_rate(static_cast<double>(hits + disk_hits),
                         static_cast<double>(misses));
  }
};

class ArtifactCache {
 public:
  struct Options {
    /// Memory-tier budget; entries are evicted LRU-first when the sum of
    /// payload bytes exceeds it. A payload larger than the whole budget
    /// bypasses the memory tier (disk still applies).
    std::size_t memory_budget_bytes = 256ull << 20;
    /// Disk tier root; empty = memory-only.
    std::string directory;
  };

  ArtifactCache() : ArtifactCache(Options{}) {}
  explicit ArtifactCache(Options options);

  /// Looks up a payload: memory tier first, then disk (a disk hit is
  /// promoted into memory). Returns nullptr on miss or when the cache is
  /// disabled. The returned blob is immutable and stays valid even if the
  /// entry is evicted afterwards.
  std::shared_ptr<const std::string> get(const CacheKey& key);

  /// Stores a payload in both tiers (no-op when disabled). Overwrites an
  /// existing entry with the same key.
  void put(const CacheKey& key, std::string payload);

  CacheStats stats() const;
  void clear();  // drops the memory tier and zeroes stats (tests/benches)

  /// Points the disk tier at `dir` ("" turns it off); creates it if
  /// needed. CLI --cache-dir lands here.
  void set_directory(const std::string& dir);
  std::string directory() const;
  std::size_t memory_budget_bytes() const { return options_.memory_budget_bytes; }

  /// Process-wide instance used by the cached builders (sampler, Räcke,
  /// Gomory–Hu). Its disk tier is initialized from SOR_CACHE_DIR on first
  /// use.
  static ArtifactCache& global();

  /// The SOR_CACHE kill switch ("off"/"0" disables; anything else,
  /// including unset, enables). Disabled = every producer behaves exactly
  /// as if this subsystem did not exist.
  static bool enabled();
  static void set_enabled(bool on);

 private:
  struct Entry {
    std::shared_ptr<const std::string> payload;
    std::list<std::string>::iterator lru_it;
  };

  void insert_locked(const std::string& id,
                     std::shared_ptr<const std::string> payload);
  void evict_to_budget_locked();
  std::shared_ptr<const std::string> read_disk(const CacheKey& key);
  void write_disk(const CacheKey& key, const std::string& payload);
  void quarantine(const std::string& path);

  Options options_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  std::size_t bytes_ = 0;
  CacheStats stats_;
};

}  // namespace sor::cache
