#pragma once

// Deterministic single-shortest-path "routing" — the strawman baseline.
//
// This is the k = 1 deterministic oblivious routing that the KKT'91 lower
// bound (and experiment E2) shows is polynomially bad on the hypercube:
// the distribution per pair is a point mass on one fixed path. Ties are
// broken by dijkstra()'s fixed rule (graph/search.hpp), mimicking an
// OSPF-style deterministic forwarding table. Optionally uses inverse-capacity edge weights (common OSPF
// practice) instead of hop counts.

#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/search.hpp"
#include "oblivious/routing.hpp"

namespace sor {

class ShortestPathRouting final : public ObliviousRouting {
 public:
  enum class Metric { kHops, kInverseCapacity };

  explicit ShortestPathRouting(const Graph& g, Metric metric = Metric::kHops);

  Path sample_path(Vertex s, Vertex t, Rng& rng) const override;
  std::string name() const override;
  std::string cache_identity() const override;

 private:
  const SpTree& tree_from(Vertex s) const;

  Metric metric_;
  std::vector<double> lengths_;
  mutable std::mutex mu_;
  mutable std::unordered_map<Vertex, SpTree> cache_;
};

}  // namespace sor
