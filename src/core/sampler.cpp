#include "core/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "cache/binary.hpp"
#include "cache/cache.hpp"
#include "core/path_system_io.hpp"
#include "demand/generators.hpp"
#include "flow/maxflow.hpp"
#include "graph/fingerprint.hpp"
#include "telemetry/memory.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace sor {

namespace {

PathSystem sample_path_system_uncached(const ObliviousRouting& routing,
                                       std::span<const VertexPair> pairs,
                                       const SampleOptions& options,
                                       std::uint64_t seed);

std::uint64_t sample_key_params(const ObliviousRouting& routing,
                                std::span<const VertexPair> pairs,
                                const SampleOptions& options,
                                std::uint64_t seed) {
  std::uint64_t h = mix_hash(0x534d504cu /* "SMPL" */,
                             cache::fnv1a64(routing.cache_identity()));
  h = mix_hash(h, static_cast<std::uint64_t>(options.k));
  h = mix_hash(h, static_cast<std::uint64_t>(options.lambda_cap));
  // λ from a Gomory–Hu tree and λ from min_cut_at_most agree only up to
  // floating-point noise, so "was a tree supplied" is part of the key.
  h = mix_hash(h, static_cast<std::uint64_t>(options.gomory_hu != nullptr));
  h = mix_hash(h, static_cast<std::uint64_t>(options.deduplicate));
  h = mix_hash(h, seed);
  h = mix_hash(h, digest_pairs(pairs));
  return h;
}

}  // namespace

PathSystem sample_path_system(const ObliviousRouting& routing,
                              std::span<const VertexPair> pairs,
                              const SampleOptions& options,
                              std::uint64_t seed) {
  const Graph& g = routing.graph();
  if (options.gomory_hu != nullptr) {
    // A cut tree from a different graph answers λ queries with silently
    // wrong values; the fingerprint stamp turns that into a hard error.
    SOR_CHECK_MSG(
        options.gomory_hu->fingerprint() == fingerprint_graph(g),
        "SampleOptions::gomory_hu was built on a different graph than the "
        "routing (fingerprint "
            << options.gomory_hu->fingerprint().hex() << " vs "
            << fingerprint_graph(g).hex() << ")");
  }
  const std::string identity = routing.cache_identity();
  if (identity.empty() || !cache::ArtifactCache::enabled()) {
    return sample_path_system_uncached(routing, pairs, options, seed);
  }
  cache::ArtifactCache& cache = cache::ArtifactCache::global();
  const cache::CacheKey key{"path_system", fingerprint_graph(g),
                            sample_key_params(routing, pairs, options, seed)};
  if (auto payload = cache.get(key)) {
    try {
      return deserialize_path_system(*payload);
    } catch (const CheckError&) {
      // Structurally invalid payload: rebuild (overwrites the entry).
    }
  }
  PathSystem system = sample_path_system_uncached(routing, pairs, options, seed);
  cache.put(key, serialize_path_system(system));
  return system;
}

namespace {

PathSystem sample_path_system_uncached(const ObliviousRouting& routing,
                                       std::span<const VertexPair> pairs,
                                       const SampleOptions& options,
                                       std::uint64_t seed) {
  SOR_SPAN("sampler/sample_path_system");
  SOR_CHECK(options.k >= 1);
  const Graph& g = routing.graph();
  const Rng base(seed);

  std::vector<std::vector<Path>> sampled(pairs.size());
  parallel_for(pairs.size(), [&](std::size_t i) {
    const VertexPair pair = pairs[i];
    Rng rng = base.split(i);
    std::size_t count = options.k;
    if (options.lambda_cap > 0) {
      std::uint32_t lambda = 0;
      if (options.gomory_hu != nullptr) {
        const double cut = options.gomory_hu->min_cut(pair.a, pair.b);
        lambda = static_cast<std::uint32_t>(std::clamp(
            std::floor(cut + 1e-6), 1.0,
            static_cast<double>(options.lambda_cap)));
      } else {
        lambda = min_cut_at_most(g, pair.a, pair.b, options.lambda_cap);
      }
      count *= lambda;
    }
    sampled[i].reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
      sampled[i].push_back(routing.sample_path(pair.a, pair.b, rng));
    }
    SOR_SKETCH("sampler/paths_per_pair").observe(static_cast<double>(count));
  });

  // Per-pair sampled counts, aggregated single-threaded after the
  // parallel loop (pairs in the input may repeat under canonicalization).
  std::map<std::pair<Vertex, Vertex>, std::size_t> sampled_by_pair;
  if (telemetry::enabled()) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      sampled_by_pair[{pairs[i].a, pairs[i].b}] += sampled[i].size();
    }
  }

  // Memory attribution: the sampled scratch (edge lists plus the Path
  // headers) is the sampler's working set until it is moved into the
  // returned system. Charged for the assembly scope so the accountant's
  // high-water mark captures the largest concurrent sampling footprint.
  std::uint64_t sampled_bytes = 0;
  if (telemetry::enabled()) {
    for (const auto& list : sampled) {
      for (const Path& p : list) {
        sampled_bytes += sizeof(Path) + p.edges.size() * sizeof(EdgeId);
      }
    }
  }
  SOR_SCOPED_BYTES("sampler", sampled_bytes);

  PathSystem system;
  for (auto& list : sampled) {
    for (Path& p : list) system.add(std::move(p));
  }
  if (options.deduplicate) system.deduplicate();
  if (telemetry::enabled()) {
    // Installed (post-dedup) sparsity per pair — the k that matters for
    // Theorem 2.5's trade-off.
    auto& sparsity = SOR_SKETCH("sampler/sparsity_per_pair");
    // Accepted = distinct canonical paths installed for the pair;
    // rejected = sampled draws that collapsed onto an already-installed
    // path. A high rejected share means k (or λ·k) overshoots the pair's
    // path diversity. Exported as a counts-only "sampler" trace plus a
    // per-pair sketch.
    telemetry::SolveObserver observer("sampler");
    auto& rejected_per_pair = SOR_SKETCH("sampler/paths_rejected_per_pair");
    for (const VertexPair& pair : system.pairs()) {
      const std::size_t accepted = system.ids(pair.a, pair.b).size();
      sparsity.observe(static_cast<double>(accepted));
      const auto it = sampled_by_pair.find({pair.a, pair.b});
      const std::size_t drawn =
          it != sampled_by_pair.end() ? it->second : accepted;
      const std::size_t rejected = drawn > accepted ? drawn - accepted : 0;
      rejected_per_pair.observe(static_cast<double>(rejected));
      observer.count("pairs");
      observer.count("paths_accepted", accepted);
      observer.count("paths_rejected", rejected);
    }
  }
  return system;
}

}  // namespace

PathSystem sample_path_system_all_pairs(const ObliviousRouting& routing,
                                        const SampleOptions& options,
                                        std::uint64_t seed) {
  const std::vector<Vertex> verts = all_vertices(routing.graph());
  const std::vector<VertexPair> pairs = all_pairs(verts);
  return sample_path_system(routing, pairs, options, seed);
}

PathSystem sample_path_system_for_demand(const ObliviousRouting& routing,
                                         const Demand& demand,
                                         const SampleOptions& options,
                                         std::uint64_t seed) {
  std::vector<VertexPair> pairs;
  pairs.reserve(demand.support_size());
  for (const Commodity& c : demand.commodities()) {
    pairs.push_back(VertexPair::canonical(c.src, c.dst));
  }
  return sample_path_system(routing, pairs, options, seed);
}

std::vector<VertexPair> all_pairs(std::span<const Vertex> vertices) {
  std::vector<VertexPair> pairs;
  pairs.reserve(vertices.size() * (vertices.size() - 1) / 2);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      pairs.push_back(VertexPair::canonical(vertices[i], vertices[j]));
    }
  }
  return pairs;
}

}  // namespace sor
