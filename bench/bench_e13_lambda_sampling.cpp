// E13 — why arbitrary demands need λ·k-sampling (§2.1's two-clique
// example; Definition 5.2's second form; Lemma 2.7).
//
// Claim reproduced: "using k-sparsity [for arbitrary demands] is not
// meaningful as we need at least λ(s,t) candidate paths between s and t":
// on a dumbbell with B parallel bridges, a demand of B units between the
// portals has OPT = 1 (one unit per bridge), but a k-sparse system can
// only touch ≤ k bridges, forcing congestion ≥ B/k. The λ·k-sample
// allocates λ(s,t)·k = B·k candidates to the portal pair and recovers
// OPT; a plain k-sample cannot, no matter how good its source.
//
// Output: per (bridges B, k): congestion of the k-sample vs the
// λ·k-sample vs OPT on the heavy portal demand.

#include <vector>

#include "bench_common.hpp"
#include "flow/gomory_hu.hpp"
#include "graph/generators.hpp"
#include "oblivious/racke_routing.hpp"

int main() {
  using namespace sor;
  const std::vector<std::uint32_t> bridge_counts =
      bench::quick_mode() ? std::vector<std::uint32_t>{4, 8}
                          : std::vector<std::uint32_t>{2, 4, 8, 16};

  Table table({"bridges", "k", "scheme", "sparsity(0,q)", "congestion",
               "opt", "ratio"});
  for (const std::uint32_t bridges : bridge_counts) {
    const std::uint32_t clique = 6;
    const Graph g = make_dumbbell(clique, bridges);
    const Vertex left_portal = 0;
    const Vertex right_portal = clique;

    // The §2.1 demand: λ(s,t) units between the portals (OPT = 1: one
    // unit per bridge).
    Demand demand;
    demand.add(left_portal, right_portal, static_cast<double>(bridges));
    const double opt = bench::opt_congestion(g, demand);

    RaeckeOptions racke;
    racke.seed = 3;
    const RaeckeRouting routing(g, racke);
    const GomoryHuTree gomory_hu(g);
    const std::vector<VertexPair> pairs{
        VertexPair::canonical(left_portal, right_portal)};

    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      // Plain k-sample (first form of Definition 5.2).
      SampleOptions plain;
      plain.k = k;
      const PathSystem plain_system =
          sample_path_system(routing, pairs, plain, 17 * k);
      const double plain_cong =
          bench::sor_congestion(g, plain_system, demand);

      // λ·k-sample (second form).
      SampleOptions scaled = plain;
      scaled.lambda_cap = bridges + 4;
      scaled.gomory_hu = &gomory_hu;
      const PathSystem scaled_system =
          sample_path_system(routing, pairs, scaled, 17 * k);
      const double scaled_cong =
          bench::sor_congestion(g, scaled_system, demand);

      table.add_row(
          {Table::fmt_int(bridges), Table::fmt_int(static_cast<long long>(k)),
           "k-sample",
           Table::fmt_int(static_cast<long long>(
               plain_system.ids(left_portal, right_portal).size())),
           Table::fmt(plain_cong), Table::fmt(opt),
           Table::fmt(plain_cong / std::max(opt, 1e-12))});
      table.add_row(
          {Table::fmt_int(bridges), Table::fmt_int(static_cast<long long>(k)),
           "lambda*k-sample",
           Table::fmt_int(static_cast<long long>(
               scaled_system.ids(left_portal, right_portal).size())),
           Table::fmt(scaled_cong), Table::fmt(opt),
           Table::fmt(scaled_cong / std::max(opt, 1e-12))});
    }
  }

  return bench::emit(
      "E13: λ·k-sampling is necessary for arbitrary demands (§2.1, Lem 2.7)",
      "A heavy portal-to-portal demand across B parallel bridges has "
      "OPT = 1, but any k-sparse system covers <= k bridges → congestion "
      ">= B/k; scaling the sample size by the min cut λ(s,t) (Definition "
      "5.2's second form, λ read off a Gomory–Hu tree) restores "
      "near-optimality.",
      table) ? 0 : 1;
}
