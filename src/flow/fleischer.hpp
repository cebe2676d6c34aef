#pragma once

// The Garg–Könemann / Fleischer phase loop behind both min-congestion LPs:
// the restricted path LP (lp/path_lp.hpp; its oracle is an argmin over a
// commodity's candidates) and OPT(D) (flow/mcf.hpp; Dijkstra). Each phase
// routes every demand in bottleneck-capped steps along its cheapest route
// and multiplies each loaded edge's length by 1 + ε·send/c_e. The primal
// is the load averaged over the phases, the certificate the best dual
// bound Σ_j d_j·dist_l(j) / Σ_e c_e·l_e seen; the loop stops when they are
// within 1+ε, at kMaxPhases, or at a deadline poll.
//
// A bottleneck's length grows by about e^(ε·OPT) per phase: far above
// OPT = 1 the averaged primal oscillates, far below it the lengths barely
// move, and either way the gap closes only at the cap. So when a bracket
// of OPT lies wholly outside [1/kScaleBand, kScaleBand], the loop scales
// the demands to bring the bracket's top to kScaleBand, and scales the
// routing back. A bracket that meets the band keeps scale 1, and the
// solve its bits.
//
// The loop is pipelined. Phase p's dual bound runs on a pool worker (a
// ClaimableTask on default_pool()) while the calling thread routes phase
// p+1 speculatively; phase p's stop test is decided when that routing
// ends. A test that says stop throws the speculative phase away: its
// lengths and load are restored from copies taken when phase p ended, and
// its credits, which the oracle holds until commit(), are dropped. A
// deadline poll that fires resolves the pending test first, so a
// truncated solve returns confirmed phases only. The bound functions and
// every sum run serially in the same order as a serial loop; only where
// and when a bound runs differs, so every solve returns the serial loop's
// bits at every pool size. The cold bracket's bound overlaps its routing
// pass the same way.
//
// Oracle, called directly (no virtual dispatch per route step):
//   std::size_t size() const;           double demand(std::size_t j) const;
//   PathView cheapest(std::size_t j, std::span<const double> lengths);
//   void credit(std::size_t j, double amount);  // on the last cheapest(j)
//   void commit();    // applies the credits held since the last commit
//   void rollback();  // drops them
//   double dual_bound(std::span<const double> lengths);
//   void average(double divisor, EdgeLoad& load);  // routes and load
// demand() and dual_bound() are in the caller's units; the view cheapest()
// returns is valid only until the next cheapest(). dual_bound() runs on
// another thread beside cheapest() and credit(), so it must share no
// mutable state with them.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "flow/congestion.hpp"
#include "graph/graph.hpp"
#include "telemetry/observer.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace sor {

/// Phase cap: a solve that reaches it stops uncertified and warns.
inline constexpr std::size_t kMaxPhases = 10000;

/// The scaling band's edge: ε·kScaleBand = 0.4 at the default ε = 0.05.
inline constexpr double kScaleBand = 8;

/// lo ≤ OPT ≤ hi, in the caller's demand units; the default knows nothing.
struct OptBracket {
  double lo = 0;
  double hi = std::numeric_limits<double>::infinity();
};

/// True when `bracket` contains an edge of the band.
inline bool straddles_band(OptBracket bracket) {
  const auto contains = [&](double x) {
    return bracket.lo <= x && x <= bracket.hi;
  };
  return contains(kScaleBand) || contains(1.0 / kScaleBand);
}

/// 1 for a bracket that meets the band. One wholly outside it is scaled
/// to put its top at kScaleBand: the phase count falls as OPT grows, up to
/// where the averaged primal starts to oscillate.
inline double demand_scale(OptBracket bracket) {
  const bool outside = bracket.hi < 1.0 / kScaleBand || bracket.lo > kScaleBand;
  return outside && bracket.hi > 0 && std::isfinite(bracket.hi)
             ? kScaleBand / bracket.hi
             : 1.0;
}

struct PhaseLoopResult {
  double congestion = 0;   // of the averaged routing
  double lower_bound = 0;  // best dual bound seen
  std::size_t phases = 0;
  /// A deadline poll stopped the loop; the routing is still feasible and
  /// the bound still certified.
  bool truncated = false;
  EdgeLoad load;                // of the averaged routing
  std::vector<double> lengths;  // final dual lengths
};

/// The bracket one pass at lengths 1/c_e gives: the dual bound, and the
/// congestion of routing every demand whole on its cheapest route. The
/// bound runs beside the routing pass.
template <class Oracle>
OptBracket cold_bracket(const Graph& g, Oracle& oracle) {
  std::vector<double> lengths(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    lengths[e] = 1.0 / g.edge(e).capacity;
  }
  double bound = 0;
  ClaimableTask bound_task(default_pool(),
                           [&] { bound = oracle.dual_bound(lengths); });
  EdgeLoad load = zero_load(g);
  for (std::size_t j = 0; j < oracle.size(); ++j) {
    add_path_load(oracle.cheapest(j, lengths), oracle.demand(j), load);
  }
  bound_task.run_or_wait();
  return {bound, max_congestion(g, load)};
}

/// Runs the loop. The initial lengths are Fleischer's δ/c_e, each times
/// `shape[e]` when a warm start supplies one. `known` is what the caller
/// already knows of OPT (a warm start's accept test); cold_bracket narrows
/// it when it straddles the band. `solver` and `label` name the
/// convergence trace and the gap warning.
template <class Oracle>
PhaseLoopResult run_phase_loop(const Graph& g, Oracle& oracle, double eps,
                               std::span<const double> shape,
                               OptBracket known, std::string_view solver,
                               std::string_view label = {}) {
  if (straddles_band(known)) {
    const OptBracket cold = cold_bracket(g, oracle);
    known = {std::max(known.lo, cold.lo), std::min(known.hi, cold.hi)};
  }
  const double scale = demand_scale(known);

  PhaseLoopResult result;
  result.load = zero_load(g);
  std::vector<double>& lengths = result.lengths;
  const double delta =
      std::pow(static_cast<double>(g.num_edges()) / (1.0 - eps), -1.0 / eps);
  lengths.resize(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    lengths[e] =
        delta * (shape.empty() ? 1.0 : shape[e]) / g.edge(e).capacity;
  }

  const auto route_phase = [&] {
    for (std::size_t j = 0; j < oracle.size(); ++j) {
      double remaining = oracle.demand(j) * scale;
      while (remaining > 1e-12) {
        const PathView path = oracle.cheapest(j, lengths);
        double bottleneck = std::numeric_limits<double>::infinity();
        for (EdgeId e : path.edges) {
          bottleneck = std::min(bottleneck, g.edge(e).capacity);
        }
        const double send = std::min(remaining, bottleneck);
        oracle.credit(j, send);
        add_path_load(path, send, result.load);
        for (EdgeId e : path.edges) {
          lengths[e] *= 1.0 + eps * send / g.edge(e).capacity;
        }
        remaining -= send;
      }
    }
  };

  telemetry::SolveObserver observer(solver, label);
  double best_lower = 0;
  // What phase `phase` left: the lengths its bound reads, and the lengths
  // and load a stop restores. Declared before the task that reads them.
  std::vector<double> bound_lengths;
  std::vector<double> kept_lengths;
  EdgeLoad kept_load;
  double bound = 0;
  std::optional<ClaimableTask> bound_task;
  route_phase();
  oracle.commit();
  std::size_t phase = 0;  // the routed phase whose stop test is pending
  for (;;) {
    bound_lengths = lengths;
    bound_task.emplace(default_pool(),
                       [&] { bound = oracle.dual_bound(bound_lengths); });
    // The argmin route and the bound are scale-invariant in the lengths:
    // renormalize before long solves overflow (short ones keep their bits).
    double max_len = 0;
    for (double l : lengths) max_len = std::max(max_len, l);
    if (max_len > 1e100) {
      for (double& l : lengths) l /= max_len;
    }
    const double routed =
        max_congestion(g, result.load) / static_cast<double>(phase + 1);
    kept_lengths = lengths;
    kept_load = result.load;

    // Poll only after a completed phase: the scaled prefix of completed
    // phases is a feasible routing.
    const bool last = phase + 1 == kMaxPhases;
    const bool truncate = !last && telemetry::solve_deadline_exceeded();
    const bool speculate = !last && !truncate;
    if (speculate) route_phase();

    bound_task->run_or_wait();
    best_lower = std::max(best_lower, bound);
    const double upper = routed / scale;
    observer.observe(phase + 1, upper, best_lower);
    ++phase;
    if (routed <= 1e-12 ||  // every route is an empty path
        (best_lower > 0 && upper / best_lower <= 1.0 + eps)) {
      if (speculate) {
        lengths.swap(kept_lengths);
        result.load.swap(kept_load);
        oracle.rollback();
      }
      break;
    }
    if (truncate) {
      result.truncated = true;
      observer.mark_truncated();
      break;
    }
    if (last) break;
    oracle.commit();
  }

  oracle.average(static_cast<double>(phase) * scale, result.load);
  result.congestion = max_congestion(g, result.load);
  result.lower_bound = best_lower;
  result.phases = phase;
  // A truncated solve stopped because the caller's budget said so.
  if (!result.truncated && result.congestion > (1.0 + eps) * best_lower) {
    SOR_LOG(kWarn) << solver << " stopped at gap "
                   << result.congestion / best_lower << " after " << phase
                   << " phases (target " << 1.0 + eps << ")";
  }
  return result;
}

}  // namespace sor
