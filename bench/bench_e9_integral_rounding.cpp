// E9 — Integral semi-oblivious routing (Lemma 6.3 / Corollary 6.4,
// Section 6).
//
// Claim reproduced: rounding the fractional semi-oblivious routing to one
// path per packet costs at most a constant factor plus an additive
// O(log m) congestion — and the randomized-rounding bound is loose in
// practice once local search cleans up (ablation: rounding with and
// without local search).
//
// Output: per (graph, demand): fractional congestion, rounded congestion
// (no search), rounded + local search, the Lemma 6.3 bound, and OPT.

#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/valiant.hpp"

namespace {

using namespace sor;

/// Randomized rounding WITHOUT local search (the raw Lemma 6.3 sampler),
/// for the ablation column.
double round_without_search(const Graph& g, const FractionalRoute& frac,
                            Rng& rng) {
  EdgeLoad load = zero_load(g);
  for (const RestrictedCommodity& c : frac.problem.commodities) {
    const auto units = static_cast<std::size_t>(std::llround(c.demand));
    const std::span<const double> weights =
        std::span(frac.weights).subspan(c.begin, c.size());
    for (std::size_t u = 0; u < units; ++u) {
      const std::size_t p = rng.next_weighted(weights);
      add_path_load(frac.problem.paths[c.begin + p], 1.0, load);
    }
  }
  return max_congestion(g, load);
}

}  // namespace

int main() {
  using namespace sor;

  struct Case {
    std::string name;
    std::unique_ptr<Graph> graph;  // stable address: routing points at it
    std::unique_ptr<ObliviousRouting> routing;
  };
  std::vector<Case> cases;
  {
    Case c{"hypercube(6)", std::make_unique<Graph>(make_hypercube(6)),
           nullptr};
    c.routing = std::make_unique<ValiantHypercube>(*c.graph, 6);
    cases.push_back(std::move(c));
  }
  {
    Case c{"grid(7x7)", std::make_unique<Graph>(make_grid(7, 7)), nullptr};
    RaeckeOptions racke;
    racke.seed = 31;
    c.routing = std::make_unique<RaeckeRouting>(*c.graph, racke);
    cases.push_back(std::move(c));
  }
  if (bench::quick_mode()) cases.erase(cases.begin() + 1, cases.end());

  Table table({"graph", "demand", "frac", "rounded", "rounded+ls",
               "greedy", "lemma6.3_bound", "opt"});
  for (const Case& c : cases) {
    const Graph& g = *c.graph;
    std::vector<std::pair<std::string, Demand>> demands;
    {
      Rng rng(41);
      demands.emplace_back("permutation", random_permutation_demand(g, rng));
    }
    {
      Rng rng(42);
      demands.emplace_back("pairs(x3)",
                           uniform_random_pairs(g, g.num_vertices(), 3.0, rng));
    }

    SampleOptions sample;
    sample.k = 8;
    const PathSystem ps =
        sample_path_system_all_pairs(*c.routing, sample, 43);
    const SemiObliviousRouter router(g, ps);

    for (const auto& [dname, demand] : demands) {
      const FractionalRoute frac = router.route_fractional(demand);
      Rng rng(44);
      const double rounded = round_without_search(g, frac, rng);
      Rng rng2(45);
      const IntegralRoute with_search = router.route_integral(demand, rng2);
      const IntegralRoute greedy = router.route_integral_greedy(demand);
      const double bound =
          2 * frac.congestion +
          2 * std::log2(static_cast<double>(g.num_edges())) + 2;
      const double opt = bench::opt_congestion(g, demand);
      table.add_row({c.name, dname, Table::fmt(frac.congestion),
                     Table::fmt(rounded), Table::fmt(with_search.congestion),
                     Table::fmt(greedy.congestion), Table::fmt(bound),
                     Table::fmt(opt)});
    }
  }

  return bench::emit(
      "E9: integralization cost (Lemma 6.3 / Cor 6.4)",
      "Randomized rounding keeps congestion within 2·frac + O(log m); "
      "local search closes most of the remaining gap, so integral "
      "semi-oblivious routing tracks the fractional optimum.",
      table) ? 0 : 1;
}
