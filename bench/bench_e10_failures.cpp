// E10 — Link-failure robustness (the SMORE [22] robustness claim the
// paper's §1.1 cites: "they offer robustness over standard oblivious
// routing as the set of candidate paths can be chosen more diversely").
//
// Claim reproduced: with k candidate paths per pair, failing f links
// strands (almost) no pair once k reaches the TE sweet spot — the rate
// optimizer shifts traffic to surviving candidates and stays at the
// re-optimized OPT of the surviving network without installing new state.
//
// Output: per (wan, k, scheme, f): stranded pairs and ratio to the
// survivor-network OPT (averaged over failure scenarios).

#include <vector>

#include "bench_common.hpp"
#include "core/failures.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "oblivious/ksp.hpp"
#include "oblivious/racke_routing.hpp"
#include "util/stats.hpp"

namespace {

using namespace sor;

/// Routes `demand` over the surviving candidates on the survivor graph;
/// stranded pairs fall back to a shortest survivor path (modelling a slow
/// re-install). Returns achieved-congestion / survivor-OPT.
double failure_ratio(const Graph& g, const PathSystem& system,
                     const Demand& demand, const FailureScenario& scenario) {
  std::vector<EdgeId> edge_map;
  const Graph survivor = surviving_graph(g, scenario, &edge_map);
  // Translate surviving candidate paths into survivor-graph edge ids.
  const PathSystem alive = surviving_paths(system, scenario);
  PathSystem translated;
  for (const VertexPair& pair : alive.pairs()) {
    for (const PathView p : alive.paths(pair.a, pair.b)) {
      Path q;
      q.src = p.src;
      q.dst = p.dst;
      for (EdgeId e : p.edges) q.edges.push_back(edge_map[e]);
      translated.add(std::move(q));
    }
  }
  RouterOptions options;
  options.backend = LpBackend::kMwu;
  options.add_shortest_fallback = true;  // stranded pairs re-install
  const SemiObliviousRouter router(survivor, translated, options);
  const double congestion = router.route_fractional(demand).congestion;
  const double opt = bench::opt_congestion(survivor, demand);
  return congestion / std::max(opt, 1e-12);
}

}  // namespace

int main() {
  using namespace sor;
  const std::size_t scenarios = bench::scaled(5, 2);

  Table table({"wan", "scheme", "k", "failed", "stranded_avg", "ratio_avg"});
  for (WanTopology wan : {make_abilene(), make_b4()}) {
    const Graph& g = wan.graph;
    const std::vector<Vertex> nodes = all_vertices(g);
    const Demand demand = gravity_demand(g, nodes, 48.0);
    const std::vector<VertexPair> pairs = all_pairs(nodes);

    RaeckeOptions racke;
    racke.seed = 3;
    const RaeckeRouting racke_routing(g, racke);

    for (const std::size_t k : {std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      SampleOptions sample;
      sample.k = k;
      sample.deduplicate = true;
      const PathSystem smore =
          sample_path_system(racke_routing, pairs, sample, 11 * k);
      const KspRouting ksp(g, k);
      PathSystem ksp_system;
      for (const VertexPair& pair : pairs) {
        for (const Path& p : ksp.candidates(pair.a, pair.b)) {
          ksp_system.add(p);
        }
      }

      for (const std::size_t failures : {std::size_t{1}, std::size_t{2}}) {
        for (const auto& [name, system] :
             std::vector<std::pair<std::string, const PathSystem*>>{
                 {"smore(racke)", &smore}, {"ksp-te", &ksp_system}}) {
          RunningStats stranded;
          RunningStats ratios;
          for (std::size_t s = 0; s < scenarios; ++s) {
            Rng rng(1000 * failures + 10 * s + k);
            const FailureScenario scenario =
                random_edge_failures(g, failures, rng);
            stranded.add(static_cast<double>(
                stranded_pairs(*system, scenario).size()));
            ratios.add(failure_ratio(g, *system, demand, scenario));
          }
          table.add_row({wan.name, name,
                         Table::fmt_int(static_cast<long long>(k)),
                         Table::fmt_int(static_cast<long long>(failures)),
                         Table::fmt(stranded.mean(), 2),
                         Table::fmt(ratios.mean())});
        }
      }
    }
  }

  return bench::emit(
      "E10: link-failure robustness (SMORE robustness claim)",
      "Candidate diversity makes rate-only re-optimization survive link "
      "failures: stranded pairs collapse to ~0 by k = 8 and congestion "
      "stays at the survivor-network OPT. (On these small WANs KSP's "
      "distinct-by-construction paths strand slightly less than sampled "
      "ones at small k; the sampling advantage is congestion quality, "
      "E6/E8.)",
      table) ? 0 : 1;
}
