#pragma once

// The Section 8 lower bound, made constructive.
//
// On the two-star gadget (left star, right star, m middle vertices joined
// to both centers) every simple path between a left leaf and a right leaf
// is l → c1 → z → c2 → r for exactly one middle z. Lemma 8.1's pigeonhole
// + Hall argument shows that for any k-sparse path system there is a set S
// of k middles and a large matching of leaf pairs whose candidates ALL
// route through S — a permutation demand the semi-oblivious routing must
// serve with congestion >= |matching| / k while OPT spreads it over all m
// middles.
//
// `find_adversarial_demand` runs that argument as an algorithm: it picks
// the set S (exhaustively for small C(m,k), greedily + local search
// otherwise), extracts the S-confined pair graph, and computes a maximum
// matching (Hopcroft–Karp) to build the demand.

#include "core/path_system.hpp"
#include "demand/demand.hpp"
#include "graph/generators.hpp"

namespace sor {

struct AdversaryResult {
  /// The adversarial permutation demand (matched leaf pairs, weight 1).
  Demand demand;
  /// Middle vertices every candidate path of the matched pairs uses.
  std::vector<Vertex> bottleneck;
  std::size_t matching_size = 0;
  /// Guaranteed congestion of ANY routing over the path system:
  /// matching_size / |bottleneck|.
  double forced_congestion = 0;
  /// Optimal congestion of the demand: ceil(matching_size / m) (spread
  /// the matched pairs over all m middles).
  double opt_congestion = 0;
};

/// The path system must cover every (left leaf, right leaf) pair of `ts`
/// with at least one candidate. `k` is the sparsity the adversary attacks
/// (pairs offering more than k distinct middles are skipped, matching the
/// k-sparse setting of Lemma 8.1).
AdversaryResult find_adversarial_demand(const TwoStarGraph& ts,
                                        const PathSystem& system,
                                        std::size_t k);

/// The middle vertex a candidate path routes through (every l→r path in
/// the gadget uses exactly one). Throws if the path is not of that form.
Vertex path_middle(const TwoStarGraph& ts, PathView path);

}  // namespace sor
