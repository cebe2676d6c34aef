#include "lp/shadow.hpp"

#include <optional>

#include "flow/mcf.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/span.hpp"

namespace sor {

ShadowSolveResult solve_shadow_optimal(const Graph& g, const Demand& realized,
                                       const ShadowSolveOptions& options) {
  ShadowSolveResult result;
  const std::vector<Commodity> commodities = realized.commodities();
  if (commodities.empty()) return result;

  SOR_SPAN("lp/shadow");
  telemetry::ProgressReporter budget_reporter;
  std::optional<telemetry::ProgressScope> budget;
  if (options.deadline_ms > 0) {
    budget_reporter.deadline_seconds = options.deadline_ms / 1000.0;
    budget.emplace(budget_reporter);
  }

  McfOptions mcf;
  mcf.epsilon = options.epsilon;
  mcf.max_phases = options.max_phases;
  const McfResult opt = min_congestion_routing(g, commodities, mcf);

  result.opt_congestion = opt.congestion;
  result.lower_bound = opt.lower_bound;
  result.phases = opt.phases;
  result.truncated = opt.truncated;
  return result;
}

}  // namespace sor
