#include "tree/racke.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/span.hpp"
#include "util/log.hpp"

namespace sor {

std::vector<double> tree_relative_load(const Graph& g, const HstTree& tree) {
  std::vector<double> load(g.num_edges(), 0.0);
  for (const HstNode& node : tree.nodes()) {
    if (node.parent == kInvalidHstNode) continue;
    for (EdgeId e : node.up_path.edges) {
      load[e] += node.cut_capacity;
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    load[e] /= g.edge(e).capacity;
  }
  return load;
}

RaeckeEnsemble::RaeckeEnsemble(const Graph& g, const RaeckeOptions& options)
    : graph_(&g) {
  SOR_SPAN("tree/racke_ensemble");
  SOR_CHECK_MSG(g.is_connected(), "Räcke ensemble requires connectivity");
  std::size_t num_trees = options.num_trees;
  if (num_trees == 0) {
    const double lg = std::log2(static_cast<double>(g.num_vertices()));
    num_trees = 2 * static_cast<std::size_t>(std::ceil(lg)) + 4;
  }
  SOR_CHECK(options.eta > 0);

  Rng rng(options.seed);
  std::vector<double> cumulative_rload(g.num_edges(), 0.0);
  trees_.reserve(num_trees);

  for (std::size_t i = 0; i < num_trees; ++i) {
    // Edge lengths: 1/c_e · exp(η · normalized cumulative relative load).
    // Normalizing by the running maximum keeps the exponent bounded while
    // preserving the MWU ordering between edges.
    double max_rload = 0;
    for (double r : cumulative_rload) max_rload = std::max(max_rload, r);
    std::vector<double> lengths(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double normalized =
          max_rload > 0 ? cumulative_rload[e] / max_rload : 0.0;
      lengths[e] = std::exp(options.eta * normalized * 8.0) /
                   g.edge(e).capacity;
    }
    Rng tree_rng = rng.split(i);
    trees_.push_back(build_frt_tree(g, lengths, tree_rng));
    const std::vector<double> rload = tree_relative_load(g, trees_.back());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      cumulative_rload[e] += rload[e];
    }
  }

  // Mixture weights: uniform by default (already logarithmic by Räcke's
  // analysis); optionally refined by solving the tree-vs-edge zero-sum
  // game exactly enough to shave constants.
  std::vector<std::vector<double>> rloads;
  rloads.reserve(trees_.size());
  for (const HstTree& tree : trees_) {
    rloads.push_back(tree_relative_load(g, tree));
  }
  if (options.optimize_weights) {
    weights_ = optimize_mixture_weights(rloads);
  } else {
    weights_.assign(trees_.size(), 1.0 / static_cast<double>(trees_.size()));
  }

  mixture_rload_.assign(g.num_edges(), 0.0);
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      mixture_rload_[e] += weights_[i] * rloads[i][e];
    }
  }
  SOR_LOG(kInfo) << "Räcke ensemble: " << trees_.size()
                 << " trees, mixture max relative load "
                 << mixture_max_relative_load();
}

RaeckeEnsemble::RaeckeEnsemble(const Graph& g, std::vector<HstTree> trees,
                               std::vector<double> weights,
                               std::vector<double> mixture_rload)
    : graph_(&g),
      trees_(std::move(trees)),
      weights_(std::move(weights)),
      mixture_rload_(std::move(mixture_rload)) {
  SOR_CHECK_MSG(!trees_.empty() && trees_.size() == weights_.size() &&
                    mixture_rload_.size() == g.num_edges(),
                "malformed Räcke ensemble parts");
}

std::size_t RaeckeEnsemble::sample_tree(Rng& rng) const {
  return rng.next_weighted(weights_);
}

Path RaeckeEnsemble::sample_path(Vertex s, Vertex t, Rng& rng) const {
  const std::size_t i = sample_tree(rng);
  return trees_[i].route(*graph_, s, t);
}

std::vector<double> optimize_mixture_weights(
    const std::vector<std::vector<double>>& loads, std::size_t iterations) {
  SOR_CHECK(!loads.empty());
  const std::size_t num_trees = loads.size();
  const std::size_t num_edges = loads.front().size();
  for (const auto& l : loads) SOR_CHECK(l.size() == num_edges);

  // Normalize the payoff matrix to [0, 1] for the MWU step size.
  double max_load = 0;
  for (const auto& l : loads) {
    for (double x : l) max_load = std::max(max_load, x);
  }
  if (max_load <= 0) {
    return std::vector<double>(num_trees, 1.0 / static_cast<double>(num_trees));
  }

  const double eta =
      std::sqrt(std::log(static_cast<double>(num_edges) + 2.0) /
                static_cast<double>(iterations));
  std::vector<double> edge_log_weights(num_edges, 0.0);
  std::vector<double> averaged(num_trees, 0.0);

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    // Edge player's distribution z ∝ exp(log weights), computed stably.
    double log_max = *std::max_element(edge_log_weights.begin(),
                                       edge_log_weights.end());
    std::vector<double> z(num_edges);
    double z_sum = 0;
    for (std::size_t e = 0; e < num_edges; ++e) {
      z[e] = std::exp(edge_log_weights[e] - log_max);
      z_sum += z[e];
    }
    // Tree player's best response: minimize expected load under z.
    std::size_t best = 0;
    double best_value = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < num_trees; ++i) {
      double value = 0;
      for (std::size_t e = 0; e < num_edges; ++e) {
        value += z[e] * loads[i][e];
      }
      if (value < best_value) {
        best_value = value;
        best = i;
      }
    }
    averaged[best] += 1.0;
    // Edge player's gain: the chosen tree's loads.
    for (std::size_t e = 0; e < num_edges; ++e) {
      edge_log_weights[e] += eta * loads[best][e] / max_load;
    }
  }
  for (double& w : averaged) w /= static_cast<double>(iterations);
  return averaged;
}

std::vector<double> exact_mixture_load(
    const RaeckeEnsemble& ensemble,
    std::span<const std::tuple<Vertex, Vertex, double>> commodities) {
  const Graph& g = ensemble.graph();
  std::vector<double> load(g.num_edges(), 0.0);
  for (std::size_t i = 0; i < ensemble.num_trees(); ++i) {
    const double w = ensemble.tree_weight(i);
    if (w <= 0) continue;
    const HstTree& tree = ensemble.tree(i);
    for (const auto& [s, t, amount] : commodities) {
      if (s == t || amount == 0) continue;
      const Path p = tree.route(g, s, t);
      for (EdgeId e : p.edges) load[e] += w * amount;
    }
  }
  return load;
}

double RaeckeEnsemble::mixture_max_relative_load() const {
  double worst = 0;
  for (double r : mixture_rload_) worst = std::max(worst, r);
  return worst;
}

}  // namespace sor
