#include "flow/mcf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "graph/search.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace sor {

namespace {

/// Groups commodity indices by source vertex so each phase runs one
/// Dijkstra per distinct source for the dual bound (the primal routing
/// step still re-runs Dijkstra after length updates, which Fleischer's
/// analysis requires).
std::map<Vertex, std::vector<std::size_t>> group_by_source(
    std::span<const Commodity> commodities) {
  std::map<Vertex, std::vector<std::size_t>> groups;
  for (std::size_t j = 0; j < commodities.size(); ++j) {
    groups[commodities[j].src].push_back(j);
  }
  return groups;
}

/// Σ_j d_j · dist_l(s_j, t_j) / Σ_e c_e · l_e — the duality lower bound on
/// OPT congestion, valid for ANY positive length function l.
double dual_bound(const Graph& g, std::span<const Commodity> commodities,
                  const std::map<Vertex, std::vector<std::size_t>>& by_source,
                  std::span<const double> lengths) {
  double numerator = 0;
  for (const auto& [src, indices] : by_source) {
    const SpTree tree = dijkstra(g, src, lengths);
    for (std::size_t j : indices) {
      numerator += commodities[j].amount * tree.dist[commodities[j].dst];
    }
  }
  double denominator = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    denominator += g.edge(e).capacity * lengths[e];
  }
  return numerator / denominator;
}

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

  const double eps = options.epsilon;
  const auto m = static_cast<double>(g.num_edges());
  // Fleischer's initialization; the exact constant only affects the
  // iteration count, correctness of our primal/dual reporting does not
  // depend on it.
  const double delta = std::pow(m / (1.0 - eps), -1.0 / eps);

  std::vector<double> lengths(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    lengths[e] = delta / g.edge(e).capacity;
  }

  const auto by_source = group_by_source(commodities);

  telemetry::SolveObserver observer("mcf");
  double best_lower = 0;
  std::size_t phase = 0;
  for (; phase < options.max_phases; ++phase) {
    // Deadline poll at phase boundaries only, after at least one full
    // phase: the scaled prefix of completed phases is feasible, so a
    // truncated result is still a usable routing.
    if (phase > 0 && telemetry::solve_deadline_exceeded()) {
      result.truncated = true;
      observer.mark_truncated();
      break;
    }
    for (std::size_t j = 0; j < commodities.size(); ++j) {
      const Commodity& c = commodities[j];
      double remaining = c.amount;
      while (remaining > 1e-12) {
        SOR_COUNTER("mcf/dijkstra_calls").add();
        const SpTree tree = dijkstra(g, c.src, lengths);
        const Path path = tree.extract_path(g, c.dst);
        double bottleneck = std::numeric_limits<double>::infinity();
        for (EdgeId e : path.edges) {
          bottleneck = std::min(bottleneck, g.edge(e).capacity);
        }
        const double send = std::min(remaining, bottleneck);
        add_path_load(path, send, result.load);
        if (options.record_paths) result.paths[j][path] += send;
        for (EdgeId e : path.edges) {
          lengths[e] *= 1.0 + eps * send / g.edge(e).capacity;
        }
        remaining -= send;
      }
    }

    // Primal congestion of the accumulated routing scaled back to 1×
    // demand, and the duality bound at the current lengths.
    const double upper =
        max_congestion(g, result.load) / static_cast<double>(phase + 1);
    best_lower = std::max(
        best_lower, dual_bound(g, commodities, by_source, lengths));
    // Per-phase primal/dual pair; the observer derives the gap (the
    // primal/dual ratio minus one) from its best-so-far envelopes.
    observer.observe(phase + 1, upper, best_lower);
    if (best_lower > 0 && upper / best_lower <= 1.0 + eps) {
      ++phase;
      break;
    }
  }
  SOR_CHECK_MSG(phase > 0, "mcf made no progress");

  for (double& load : result.load) load /= static_cast<double>(phase);
  if (options.record_paths) {
    for (auto& per_commodity : result.paths) {
      for (auto& [path, weight] : per_commodity) {
        weight /= static_cast<double>(phase);
      }
    }
  }
  result.congestion = max_congestion(g, result.load);
  result.lower_bound = best_lower;
  result.phases = phase;
  SOR_COUNTER("mcf/phases").add(phase);
  SOR_GAUGE("mcf/duality_gap")
      .set(result.congestion / std::max(best_lower, 1e-300));
  if (!result.truncated &&
      result.congestion / std::max(best_lower, 1e-300) > 1.0 + eps) {
    SOR_LOG(kWarn) << "mcf hit max_phases with gap "
                   << result.congestion / best_lower << " (target "
                   << 1.0 + eps << ")";
  }
  return result;
}

}  // namespace sor
