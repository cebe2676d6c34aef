// Empirical validation of the Appendix B probability machinery the Main
// Lemma rests on: negative association of multinomial path-sampling
// indicators and the Chernoff tails used for the per-edge congestion
// bounds. These are statistical property tests with deterministic seeds
// and generous tolerances.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/sampler.hpp"
#include "core/weak_routing.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "oblivious/valiant.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sor {
namespace {

// --------------------------------------------------------------------
// Lemma B.2 flavor: the indicators {X_p} of a categorical draw ("which
// path did sample i pick") are negatively associated. A measurable
// consequence: for p != q, Cov(X_p, X_q) <= 0, i.e. E[X_p X_q] <=
// E[X_p]·E[X_q].
// --------------------------------------------------------------------
TEST(NegativeAssociation, CategoricalIndicatorsAntiCorrelate) {
  Rng rng(1);
  const std::vector<double> weights{0.5, 0.3, 0.2};
  const int trials = 200000;
  // With one draw, X_p·X_q = 0 always, so test the k-draw counts
  // N_p = Σ_i X_{i,p} instead: for multinomials Cov(N_p, N_q) = -k·p·q.
  const int k = 8;
  std::vector<double> sum(3, 0), sum_sq(3, 0);
  double sum_01 = 0;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> counts(3, 0);
    for (int i = 0; i < k; ++i) ++counts[rng.next_weighted(weights)];
    for (int p = 0; p < 3; ++p) sum[p] += counts[p];
    sum_01 += counts[0] * counts[1];
  }
  const double mean0 = sum[0] / trials;
  const double mean1 = sum[1] / trials;
  const double cov01 = sum_01 / trials - mean0 * mean1;
  const double expected_cov = -k * weights[0] * weights[1];  // = -1.2
  EXPECT_LT(cov01, 0.0);
  EXPECT_NEAR(cov01, expected_cov, 0.05);
}

// --------------------------------------------------------------------
// Lemma B.5 flavor: Chernoff upper tail for sums of negatively
// associated 0/1 variables. Empirical check on the exact quantity the
// Main Lemma bounds: the number of sampled paths crossing a fixed edge.
// --------------------------------------------------------------------
TEST(Chernoff, EdgeLoadTailDecaysExponentially) {
  const std::uint32_t d = 5;
  const Graph g = make_hypercube(d);
  const ValiantHypercube routing(g, d);

  // Fix an edge and a permutation demand; sample k paths per pair and
  // count how many cross the edge. Repeat over independent samples and
  // measure the tail beyond multiples of the mean.
  Rng demand_rng(2);
  const Demand demand = random_permutation_demand(g, demand_rng);
  const EdgeId edge = 0;
  const std::size_t k = 4;

  const int trials = 400;
  std::vector<double> crossings;
  for (int t = 0; t < trials; ++t) {
    Rng rng(100 + t);
    double count = 0;
    for (const Commodity& c : demand.commodities()) {
      for (std::size_t i = 0; i < k; ++i) {
        const Path p = routing.sample_path(c.src, c.dst, rng);
        for (EdgeId e : p.edges) {
          if (e == edge) count += 1;
        }
      }
    }
    crossings.push_back(count / static_cast<double>(k));  // normalized load
  }

  const double mu = mean(crossings);
  // Valiant keeps expected normalized load O(1): sanity.
  EXPECT_LT(mu, 4.0);
  // Tail: P[X > 2μ] should be small, P[X > 4μ] vanishing.
  int above2 = 0, above4 = 0;
  for (double x : crossings) {
    if (x > 2 * mu) ++above2;
    if (x > 4 * mu) ++above4;
  }
  EXPECT_LT(static_cast<double>(above2) / trials, 0.05);
  EXPECT_EQ(above4, 0);
}

// --------------------------------------------------------------------
// The union-bound scaling (Corollary 5.7 flavor): failure probability of
// a FIXED demand decays as k grows. Measured as the fraction of
// independent k-samples whose best restricted congestion exceeds a fixed
// multiple of the oblivious baseline.
// --------------------------------------------------------------------
TEST(Chernoff, PerDemandFailureDecaysWithK) {
  const std::uint32_t d = 4;
  const Graph g = make_hypercube(d);
  const ValiantHypercube routing(g, d);
  const Demand demand = bit_complement_demand(d);

  auto failure_rate = [&](std::size_t k) {
    const int trials = 30;
    int failures = 0;
    for (int t = 0; t < trials; ++t) {
      SampleOptions sample;
      sample.k = k;
      const PathSystem ps =
          sample_path_system_for_demand(routing, demand, sample, 500 + t);
      // Cheap proxy for the LP: the equal-split congestion of the sample
      // (what the weak process starts from).
      EdgeLoad load = zero_load(g);
      for (const Commodity& c : demand.commodities()) {
        const auto paths = ps.paths(c.src, c.dst);
        for (const PathView p : paths) {
          add_path_load(p, c.amount / static_cast<double>(paths.size()),
                        load);
        }
      }
      if (max_congestion(g, load) > 6.0) ++failures;
    }
    return static_cast<double>(failures) / trials;
  };

  const double f1 = failure_rate(1);
  const double f8 = failure_rate(8);
  EXPECT_LE(f8, f1);
  EXPECT_LT(f8, 0.15);
}

// --------------------------------------------------------------------
// Bad-pattern bookkeeping (Lemma 5.13 flavor): the deletion process can
// cut at most total_paths paths, and the count of deleted edges is
// bounded by total initial load / threshold — a combinatorial sanity
// invariant mirroring the bad-pattern counting.
// --------------------------------------------------------------------
TEST(BadPatterns, DeletionBudgetIsBounded) {
  const std::uint32_t d = 4;
  const Graph g = make_hypercube(d);
  const ValiantHypercube routing(g, d);
  Rng rng(9);
  const Demand demand = random_permutation_demand(g, rng);
  SampleOptions sample;
  sample.k = 3;
  const PathSystem ps =
      sample_path_system_for_demand(routing, demand, sample, 10);

  // Total initial (fractional) load = Σ_j d_j · avg-path-length <= d·|D|.
  double total_load = 0;
  for (const Commodity& c : demand.commodities()) {
    const auto paths = ps.paths(c.src, c.dst);
    for (const PathView p : paths) {
      total_load += c.amount / static_cast<double>(paths.size()) *
                    static_cast<double>(p.hops());
    }
  }

  RestrictedProblem problem;
  problem.graph = &g;
  for (const Commodity& c : demand.commodities()) {
    append_commodity(problem, c, ps);
  }
  const double threshold = 1.0;
  const WeakRoutingResult r = weak_routing_process(problem, threshold);
  // Every deleted edge carried > threshold load at deletion time, and
  // deleting it removes that load permanently.
  EXPECT_LE(static_cast<double>(r.deleted_edges.size()),
            total_load / threshold + 1);
}

}  // namespace
}  // namespace sor
