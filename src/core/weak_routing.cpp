#include "core/weak_routing.hpp"

#include <algorithm>

namespace sor {

WeakRoutingResult weak_routing_process(const RestrictedProblem& problem,
                                       double threshold) {
  validate_restricted_problem(problem);
  SOR_CHECK(threshold > 0);
  const Graph& g = *problem.graph;

  WeakRoutingResult result;
  result.load = zero_load(g);
  result.weights.resize(problem.commodities.size());

  // Initial weights: the demand split equally over the candidate multiset
  // (w⁰ in the paper), plus incidence lists per edge for O(1) deletions.
  struct PathRef {
    std::uint32_t commodity;
    std::uint32_t index;
  };
  std::vector<std::vector<PathRef>> on_edge(g.num_edges());
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const auto& c = problem.commodities[j];
    const double share = c.demand / static_cast<double>(c.size());
    result.weights[j].assign(c.size(), share);
    result.total_demand += c.demand;
    for (std::size_t p = 0; p < c.size(); ++p) {
      const PathView path = problem.candidate(j, p);
      add_path_load(path, share, result.load);
      for (EdgeId e : path.edges) {
        on_edge[e].push_back(PathRef{static_cast<std::uint32_t>(j),
                                     static_cast<std::uint32_t>(p)});
      }
    }
  }

  // Sweep edges in the fixed id order (the paper's arbitrary-but-fixed
  // ordering); delete every candidate crossing an overcongested edge.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (result.load[e] / g.edge(e).capacity <= threshold) continue;
    result.deleted_edges.push_back(e);
    for (const PathRef& ref : on_edge[e]) {
      double& w = result.weights[ref.commodity][ref.index];
      if (w == 0) continue;
      add_path_load(problem.candidate(ref.commodity, ref.index), -w,
                    result.load);
      w = 0;
    }
  }

  for (const auto& per_commodity : result.weights) {
    for (double w : per_commodity) result.routed_amount += w;
  }
  result.congestion = max_congestion(g, result.load);
  SOR_DCHECK(result.congestion <= threshold + 1e-9);
  return result;
}

HalvingRouteResult route_by_halving(const Graph& g, const PathSystem& system,
                                    const Demand& demand, double threshold,
                                    std::size_t max_rounds) {
  SOR_CHECK(threshold > 0);
  HalvingRouteResult result;
  result.load = zero_load(g);

  Demand remaining = demand;
  for (std::size_t round = 0; round < max_rounds && !remaining.empty();
       ++round) {
    ++result.rounds;

    RestrictedProblem problem;
    problem.graph = &g;
    std::vector<Commodity> commodities = remaining.commodities();
    for (const Commodity& c : commodities) {
      const std::size_t appended = append_commodity(problem, c, system);
      SOR_CHECK_MSG(appended > 0, "halving router: pair without candidates");
    }

    const WeakRoutingResult weak = weak_routing_process(problem, threshold);

    // Commit pairs that kept at least a quarter of their demand: route
    // their FULL demand proportionally to the surviving weights (at most
    // 4× the surviving load, hence <= 4·threshold extra congestion per
    // round — the Lemma 5.8 bookkeeping).
    Demand next;
    bool committed_any = false;
    for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
      const Commodity& c = commodities[j];
      double survived = 0;
      for (double w : weak.weights[j]) survived += w;
      if (survived >= c.amount / 4.0) {
        const double scale = c.amount / survived;
        for (std::size_t p = 0; p < weak.weights[j].size(); ++p) {
          if (weak.weights[j][p] > 0) {
            add_path_load(problem.candidate(j, p), weak.weights[j][p] * scale,
                          result.load);
          }
        }
        committed_any = true;
      } else {
        next.add(c.src, c.dst, c.amount);
      }
    }

    if (!committed_any) break;  // the process stalled; force-route below
    remaining = std::move(next);
  }

  // Anything left after the rounds is force-routed on its first candidate.
  for (const Commodity& c : remaining.commodities()) {
    add_path_load(system.path(system.ids(c.src, c.dst).front()), c.amount,
                  result.load);
    result.force_routed += c.amount;
  }

  result.congestion = max_congestion(g, result.load);
  return result;
}

}  // namespace sor
