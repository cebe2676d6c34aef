#pragma once

// Demand matrices (Definition 2.2).
//
// A demand maps unordered vertex pairs to nonnegative reals. Routing is
// undirected, so {s,t} and {t,s} are the same pair; entries accumulate.
// The class is sparse: only pairs with positive demand are stored.

#include <compare>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flow/congestion.hpp"
#include "graph/graph.hpp"

namespace sor {

/// Canonical unordered pair key (smaller vertex first).
struct VertexPair {
  Vertex a;
  Vertex b;

  static VertexPair canonical(Vertex x, Vertex y) {
    return x < y ? VertexPair{x, y} : VertexPair{y, x};
  }
  friend bool operator==(const VertexPair&, const VertexPair&) = default;
  /// Sorted by (a, b).
  friend auto operator<=>(const VertexPair&, const VertexPair&) = default;
};

struct VertexPairHash {
  std::size_t operator()(const VertexPair& p) const {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(p.a) << 32) | p.b;
    // splitmix64 finalizer.
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

class Demand {
 public:
  Demand() = default;

  /// Accumulates `amount` onto the pair {x, y}. x != y, amount >= 0;
  /// adding 0 is a no-op.
  void add(Vertex x, Vertex y, double amount);

  /// Demand between {x, y} (0 if absent).
  double at(Vertex x, Vertex y) const;

  /// Number of pairs with positive demand (|supp(D)|).
  std::size_t support_size() const { return entries_.size(); }

  /// Σ_pairs D(pair) (the paper's |D|).
  double total() const;

  /// Largest single entry.
  double max_entry() const;

  bool empty() const { return entries_.empty(); }

  /// Multiplies every entry by `factor` (> 0).
  void scale(double factor);

  /// Deterministic (sorted by pair) commodity list for the solvers.
  std::vector<Commodity> commodities() const;

  /// True iff every entry is an integer (within eps).
  bool is_integral(double eps = 1e-9) const;

  /// True iff every entry is <= 1 (a "1-demand").
  bool is_one_demand(double eps = 1e-9) const;

  /// Pointwise sum.
  static Demand sum(const Demand& a, const Demand& b);

  const std::unordered_map<VertexPair, double, VertexPairHash>& entries()
      const {
    return entries_;
  }

 private:
  std::unordered_map<VertexPair, double, VertexPairHash> entries_;
};

}  // namespace sor
