#include "lowerbound/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "flow/matching.hpp"
#include "graph/path.hpp"

namespace sor {

Vertex path_middle(const TwoStarGraph& ts, PathView path) {
  const std::vector<Vertex> verts = path_vertices(ts.graph, path);
  std::unordered_set<Vertex> middles(ts.middles.begin(), ts.middles.end());
  for (Vertex v : verts) {
    if (middles.contains(v)) return v;
  }
  throw CheckError("path does not traverse a middle vertex");
}

namespace {

/// Middle-index sets per (left-index, right-index) pair.
using PairMiddles = std::vector<std::vector<std::vector<std::uint32_t>>>;

PairMiddles collect_pair_middles(const TwoStarGraph& ts,
                                 const PathSystem& system) {
  std::unordered_map<Vertex, std::uint32_t> middle_index;
  for (std::uint32_t i = 0; i < ts.middles.size(); ++i) {
    middle_index[ts.middles[i]] = i;
  }
  PairMiddles result(ts.left_leaves.size(),
                     std::vector<std::vector<std::uint32_t>>(
                         ts.right_leaves.size()));
  for (std::size_t l = 0; l < ts.left_leaves.size(); ++l) {
    for (std::size_t r = 0; r < ts.right_leaves.size(); ++r) {
      std::set<std::uint32_t> used;
      for (const PathView p :
           system.paths(ts.left_leaves[l], ts.right_leaves[r])) {
        used.insert(middle_index.at(path_middle(ts, p)));
      }
      SOR_CHECK_MSG(!used.empty(), "pair without candidate paths");
      result[l][r].assign(used.begin(), used.end());
    }
  }
  return result;
}

/// Number of (l, r) pairs whose middles are all inside `in_s`.
std::size_t confined_pairs(const PairMiddles& middles,
                           const std::vector<bool>& in_s) {
  std::size_t count = 0;
  for (const auto& row : middles) {
    for (const auto& used : row) {
      bool confined = true;
      for (std::uint32_t z : used) {
        if (!in_s[z]) {
          confined = false;
          break;
        }
      }
      if (confined) ++count;
    }
  }
  return count;
}

/// Chooses the size-k set of middles maximizing confined pairs:
/// exhaustive when C(m,k) is small, greedy + swap local search otherwise.
std::vector<std::uint32_t> choose_bottleneck(const PairMiddles& middles,
                                             std::size_t num_middles,
                                             std::size_t k) {
  k = std::min(k, num_middles);

  // Exhaustive enumeration budget.
  double combos = 1;
  for (std::size_t i = 0; i < k; ++i) {
    combos *= static_cast<double>(num_middles - i) / static_cast<double>(i + 1);
  }

  std::vector<bool> in_s(num_middles, false);
  std::vector<std::uint32_t> best;
  std::size_t best_count = 0;

  if (combos <= 200000) {
    std::vector<std::uint32_t> combo(k);
    // Iterate k-combinations in lexicographic order.
    for (std::size_t i = 0; i < k; ++i) combo[i] = static_cast<std::uint32_t>(i);
    for (;;) {
      std::fill(in_s.begin(), in_s.end(), false);
      for (std::uint32_t z : combo) in_s[z] = true;
      const std::size_t count = confined_pairs(middles, in_s);
      if (count > best_count) {
        best_count = count;
        best = combo;
      }
      // Next combination.
      std::size_t i = k;
      while (i > 0 &&
             combo[i - 1] == num_middles - k + (i - 1)) {
        --i;
      }
      if (i == 0) break;
      ++combo[i - 1];
      for (std::size_t j = i; j < k; ++j) combo[j] = combo[j - 1] + 1;
    }
    return best;
  }

  // Greedy: repeatedly add the middle that maximizes confined pairs.
  std::vector<std::uint32_t> chosen;
  std::fill(in_s.begin(), in_s.end(), false);
  for (std::size_t round = 0; round < k; ++round) {
    std::size_t best_gain = 0;
    std::uint32_t best_z = 0;
    bool found = false;
    for (std::uint32_t z = 0; z < num_middles; ++z) {
      if (in_s[z]) continue;
      in_s[z] = true;
      const std::size_t count = confined_pairs(middles, in_s);
      in_s[z] = false;
      if (!found || count > best_gain) {
        best_gain = count;
        best_z = z;
        found = true;
      }
    }
    chosen.push_back(best_z);
    in_s[best_z] = true;
  }
  // Swap local search.
  bool improved = true;
  std::size_t current = confined_pairs(middles, in_s);
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < chosen.size() && !improved; ++i) {
      for (std::uint32_t z = 0; z < num_middles && !improved; ++z) {
        if (in_s[z]) continue;
        in_s[chosen[i]] = false;
        in_s[z] = true;
        const std::size_t count = confined_pairs(middles, in_s);
        if (count > current) {
          current = count;
          chosen[i] = z;
          improved = true;
        } else {
          in_s[z] = false;
          in_s[chosen[i]] = true;
        }
      }
    }
  }
  return chosen;
}

}  // namespace

AdversaryResult find_adversarial_demand(const TwoStarGraph& ts,
                                        const PathSystem& system,
                                        std::size_t k) {
  SOR_CHECK(k >= 1);
  const PairMiddles middles = collect_pair_middles(ts, system);
  const std::vector<std::uint32_t> bottleneck =
      choose_bottleneck(middles, ts.middles.size(), k);

  std::vector<bool> in_s(ts.middles.size(), false);
  for (std::uint32_t z : bottleneck) in_s[z] = true;

  // Bipartite graph of confined pairs → maximum matching.
  std::vector<std::vector<std::uint32_t>> adjacency(ts.left_leaves.size());
  for (std::size_t l = 0; l < ts.left_leaves.size(); ++l) {
    for (std::size_t r = 0; r < ts.right_leaves.size(); ++r) {
      bool confined = true;
      for (std::uint32_t z : middles[l][r]) {
        if (!in_s[z]) {
          confined = false;
          break;
        }
      }
      if (confined) adjacency[l].push_back(static_cast<std::uint32_t>(r));
    }
  }
  const std::vector<std::uint32_t> match = maximum_bipartite_matching(
      ts.left_leaves.size(), ts.right_leaves.size(), adjacency);

  AdversaryResult result;
  for (std::uint32_t z : bottleneck) result.bottleneck.push_back(ts.middles[z]);
  for (std::size_t l = 0; l < match.size(); ++l) {
    if (match[l] == kUnmatched) continue;
    result.demand.add(ts.left_leaves[l], ts.right_leaves[match[l]], 1.0);
    ++result.matching_size;
  }
  result.forced_congestion =
      result.bottleneck.empty()
          ? 0
          : static_cast<double>(result.matching_size) /
                static_cast<double>(result.bottleneck.size());
  result.opt_congestion =
      std::ceil(static_cast<double>(result.matching_size) /
                static_cast<double>(ts.middles.size()));
  return result;
}

}  // namespace sor
