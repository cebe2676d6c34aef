#include "flow/mcf.hpp"

#include <map>

#include "flow/fleischer.hpp"
#include "graph/search.hpp"
#include "telemetry/span.hpp"

namespace sor {

namespace {

/// The all-paths oracle: one Dijkstra run per route step, stopped when the
/// commodity's target settles, and a dual bound with one full run per
/// distinct source (the routing step re-runs Dijkstra after every length
/// update, which Fleischer's analysis requires). The routing and the bound
/// each have their own search, kept for the whole solve, since the bound
/// runs beside the routing. Records the routes in `paths` when it is
/// non-null.
class DijkstraOracle {
 public:
  using PathWeights = std::vector<std::unordered_map<Path, double, PathHash>>;

  DijkstraOracle(const Graph& g, std::span<const Commodity> commodities,
                 PathWeights* paths)
      : g_(g),
        commodities_(commodities),
        paths_(paths),
        search_(g),
        bound_search_(g) {
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      by_source_[commodities[j].src].push_back(j);
    }
  }

  std::size_t size() const { return commodities_.size(); }
  double demand(std::size_t j) const { return commodities_[j].amount; }

  /// Valid until the next cheapest().
  PathView cheapest(std::size_t j, std::span<const double> lengths) {
    const Commodity& c = commodities_[j];
    search_.run(c.src, lengths, c.dst);
    last_ = search_.path_to(c.dst);
    return last_;
  }

  void credit(std::size_t j, double amount) {
    if (paths_ != nullptr) held_.push_back({j, to_path(last_), amount});
  }

  void commit() {
    for (HeldCredit& c : held_) {
      (*paths_)[c.commodity][std::move(c.path)] += c.amount;
    }
    held_.clear();
  }

  void rollback() { held_.clear(); }

  /// Σ_j d_j · dist_l(s_j, t_j) / Σ_e c_e · l_e — the duality lower bound
  /// on OPT congestion, valid for ANY positive length function l.
  double dual_bound(std::span<const double> lengths) {
    double numerator = 0;
    for (const auto& [src, indices] : by_source_) {
      bound_search_.run(src, lengths);
      for (std::size_t j : indices) {
        const Commodity& c = commodities_[j];
        numerator += c.amount * bound_search_.dist(c.dst);
      }
    }
    double denominator = 0;
    for (EdgeId e = 0; e < g_.num_edges(); ++e) {
      denominator += g_.edge(e).capacity * lengths[e];
    }
    return numerator / denominator;
  }

  void average(double divisor, EdgeLoad& load) {
    for (double& l : load) l /= divisor;
    if (paths_ == nullptr) return;
    for (auto& per_commodity : *paths_) {
      for (auto& [path, weight] : per_commodity) weight /= divisor;
    }
  }

 private:
  struct HeldCredit {
    std::size_t commodity;
    Path path;
    double amount;
  };

  const Graph& g_;
  std::span<const Commodity> commodities_;
  PathWeights* paths_;
  std::map<Vertex, std::vector<std::size_t>> by_source_;
  DijkstraSearch search_;        // cheapest()
  DijkstraSearch bound_search_;  // dual_bound()
  PathView last_;
  std::vector<HeldCredit> held_;  // since the last commit()
};

}  // namespace

McfResult min_congestion_routing(const Graph& g,
                                 std::span<const Commodity> commodities,
                                 const McfOptions& options) {
  SOR_SPAN("mcf/solve");
  SOR_CHECK(options.epsilon > 0 && options.epsilon < 1);
  for (const Commodity& c : commodities) {
    SOR_CHECK(c.src < g.num_vertices() && c.dst < g.num_vertices());
    SOR_CHECK_MSG(c.src != c.dst, "commodity with equal endpoints");
    SOR_CHECK_MSG(c.amount > 0, "commodity with nonpositive amount");
  }

  McfResult result;
  result.load = zero_load(g);
  if (options.record_paths) result.paths.resize(commodities.size());
  if (commodities.empty()) return result;

  DijkstraOracle oracle(g, commodities,
                        options.record_paths ? &result.paths : nullptr);
  PhaseLoopResult loop =
      run_phase_loop(g, oracle, options.epsilon, {}, {}, "mcf");
  result.congestion = loop.congestion;
  result.lower_bound = loop.lower_bound;
  result.load = std::move(loop.load);
  result.phases = loop.phases;
  result.truncated = loop.truncated;
  return result;
}

}  // namespace sor
