#include "telemetry/slo.hpp"

#include <fstream>
#include <sstream>

#include "telemetry/json.hpp"
#include "telemetry/recorder.hpp"
#include "util/check.hpp"

namespace sor::telemetry {

SloConfig parse_slo_config(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  SOR_CHECK_MSG(doc.is_object(), "SLO config must be a JSON object");
  SloConfig config;
  for (const auto& [key, value] : doc.members()) {
    if (key == "max_congestion") {
      config.max_congestion = value.as_number();
    } else if (key == "solve_p99_ms") {
      config.solve_p99_ms = value.as_number();
    } else if (key == "min_cache_hit_rate") {
      config.min_cache_hit_rate = value.as_number();
    } else if (key == "max_regret") {
      config.max_regret = value.as_number();
    } else if (key == "max_predictor_mape") {
      config.max_predictor_mape = value.as_number();
    } else {
      SOR_CHECK_MSG(false, "unknown SLO config key '" << key << "'");
    }
  }
  return config;
}

SloConfig load_slo_config(const std::string& path) {
  std::ifstream in(path);
  SOR_CHECK_MSG(in, "cannot read SLO config " << path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_slo_config(text.str());
}

namespace {

void record_side_effects(const SloBreach& breach) {
  Registry::global().record_breach(breach);
  Recorder::global().record(
      "slo/breach",
      {{"slo", breach.slo},
       {"epoch", static_cast<std::uint64_t>(breach.epoch)},
       {"value", breach.value},
       {"budget", breach.budget}});
}

}  // namespace

std::vector<SloBreach> slo_breaches(const SloConfig& config,
                                    std::uint64_t epoch, double congestion,
                                    double solve_p99_ms, double cache_hit_rate,
                                    double regret, double predictor_mape) {
  struct Bound {
    const char* slo;
    double figure;
    double budget;
    bool floor;  // the figure must reach the budget, not stay under it
  };
  const Bound bounds[] = {
      {"max_congestion", congestion, config.max_congestion, false},
      {"solve_p99_ms", solve_p99_ms, config.solve_p99_ms, false},
      {"cache_hit_rate", cache_hit_rate, config.min_cache_hit_rate, true},
      {"max_regret", regret, config.max_regret, false},
      {"max_predictor_mape", predictor_mape, config.max_predictor_mape,
       false},
  };
  std::vector<SloBreach> breaches;
  for (const Bound& b : bounds) {
    if (b.figure < 0) continue;
    if (b.floor ? b.figure < b.budget : b.figure > b.budget) {
      breaches.push_back({b.slo, epoch, b.figure, b.budget});
    }
  }
  return breaches;
}

std::vector<SloBreach> SloTracker::check_epoch(std::uint64_t epoch,
                                               double congestion,
                                               double solve_p99_ms,
                                               double cache_hit_rate,
                                               double regret,
                                               double predictor_mape) {
  std::vector<SloBreach> breaches =
      slo_breaches(config_, epoch, congestion, solve_p99_ms, cache_hit_rate,
                   regret, predictor_mape);
  for (const SloBreach& breach : breaches) record_side_effects(breach);
  return breaches;
}

}  // namespace sor::telemetry
