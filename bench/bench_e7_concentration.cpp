// E7 — Concentration / union-bound story (Lemma 5.6, Corollary 5.7).
//
// Claim reproduced: ONE sampled path system must work for ALL demands
// simultaneously. The proof shows the per-demand failure probability
// decays exponentially (in k and the demand size), enabling the union
// bound. Empirically: fix one k-sample, stream many random permutation
// demands through it, and watch the distribution of competitive ratios —
// the upper tail collapses as k grows, and the worst observed demand is
// already fine at k ≈ log n. Also reproduces the weak-routing survival
// statistic the Main Lemma is actually about.
//
// Output: per k: mean / p95 / max ratio over many demands, and the
// fraction of demands whose weak-routing process keeps >= half the demand.

#include <vector>

#include "bench_common.hpp"
#include "core/weak_routing.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "oblivious/valiant.hpp"
#include "util/stats.hpp"

int main() {
  using namespace sor;
  const std::uint32_t d = 6;
  const Graph g = make_hypercube(d);
  const ValiantHypercube routing(g, d);
  const std::size_t num_demands = bench::scaled(40, 8);
  const double weak_threshold = 3.0;

  // One demand suite reused across k (the union-bound framing: the SAME
  // adversary stream attacks every system).
  std::vector<Demand> demands;
  std::vector<double> opts;
  for (std::size_t i = 0; i < num_demands; ++i) {
    Rng rng(900 + i);
    demands.push_back(random_permutation_demand(g, rng));
    opts.push_back(bench::opt_congestion(g, demands.back()));
  }

  Table table({"k", "ratio_mean", "ratio_p95", "ratio_max",
               "weak_survive_frac", "halving_ratio_mean"});
  const std::vector<std::size_t> ks =
      bench::quick_mode() ? std::vector<std::size_t>{2, 6, 12}
                          : std::vector<std::size_t>{1, 2, 4, 6, 8, 10, 12};
  for (const std::size_t k : ks) {
    SampleOptions sample;
    sample.k = k;
    const PathSystem ps = sample_path_system_all_pairs(routing, sample, 3);

    std::vector<double> ratios;
    std::vector<double> halving_ratios;
    std::size_t survivals = 0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const double congestion = bench::sor_congestion(g, ps, demands[i]);
      ratios.push_back(congestion / std::max(opts[i], 1e-12));

      // The constructive Lemma 5.8 router (repeated weak routing) as an
      // actual LP-free routing algorithm.
      const HalvingRouteResult halving =
          route_by_halving(g, ps, demands[i], weak_threshold);
      halving_ratios.push_back(halving.congestion /
                               std::max(opts[i], 1e-12));

      // The Main Lemma's statistic: does the deletion process at an O(1)
      // threshold keep at least half of this demand?
      RestrictedProblem problem;
      problem.graph = &g;
      for (const Commodity& c : demands[i].commodities()) {
        append_commodity(problem, c, ps);
      }
      const WeakRoutingResult weak =
          weak_routing_process(problem, weak_threshold);
      if (weak.routed_amount >= weak.total_demand / 2) ++survivals;
    }

    table.add_row(
        {Table::fmt_int(static_cast<long long>(k)),
         Table::fmt(mean(ratios)), Table::fmt(quantile(ratios, 0.95)),
         Table::fmt(max_value(ratios)),
         Table::fmt(static_cast<double>(survivals) /
                    static_cast<double>(demands.size())),
         Table::fmt(mean(halving_ratios))});
  }

  return bench::emit(
      "E7: concentration across demands (Lemma 5.6 / Cor 5.7)",
      "One fixed k-sample serves a whole stream of random permutation "
      "demands: the ratio tail (p95/max) collapses as k grows, the "
      "weak-routing process survives (routes >= half) on every demand "
      "once k reaches the logarithmic regime, and the constructive "
      "Lemma 5.8 halving router (LP-free) routes everything within a "
      "small factor of the LP.",
      table) ? 0 : 1;
}
