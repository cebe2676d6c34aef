#include "telemetry/slo.hpp"

#include <fstream>
#include <sstream>

#include "telemetry/recorder.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

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

std::vector<SloBreach> SloTracker::check_epoch(std::uint64_t epoch,
                                               double congestion,
                                               double solve_p99_ms,
                                               double cache_hit_rate,
                                               double regret,
                                               double predictor_mape) {
  std::vector<SloBreach> breaches;
  if (congestion > config_.max_congestion) {
    breaches.push_back(
        {"max_congestion", epoch, congestion, config_.max_congestion});
  }
  if (solve_p99_ms > config_.solve_p99_ms) {
    breaches.push_back(
        {"solve_p99_ms", epoch, solve_p99_ms, config_.solve_p99_ms});
  }
  if (config_.min_cache_hit_rate > 0 && cache_hit_rate >= 0 &&
      cache_hit_rate < config_.min_cache_hit_rate) {
    breaches.push_back(
        {"cache_hit_rate", epoch, cache_hit_rate, config_.min_cache_hit_rate});
  }
  if (regret >= 0 && regret > config_.max_regret) {
    breaches.push_back({"max_regret", epoch, regret, config_.max_regret});
  }
  if (predictor_mape >= 0 && predictor_mape > config_.max_predictor_mape) {
    breaches.push_back({"max_predictor_mape", epoch, predictor_mape,
                        config_.max_predictor_mape});
  }
  for (const SloBreach& breach : breaches) record_side_effects(breach);
  return breaches;
}

namespace {

SloBreach breach_from_json(const JsonValue& row) {
  SloBreach breach;
  breach.slo = row.at("slo").as_string();
  breach.epoch = static_cast<std::uint64_t>(row.at("epoch").as_number());
  breach.value = row.at("value").as_number();
  breach.budget = row.at("budget").as_number();
  return breach;
}

}  // namespace

ArtifactSloReport evaluate_artifact_slo(const JsonValue& artifact,
                                        const SloConfig& config) {
  ArtifactSloReport report;
  if (artifact.has("health")) {
    const JsonValue& health = artifact.at("health");
    if (health.has("breaches")) {
      const JsonValue& breaches = health.at("breaches");
      for (std::size_t i = 0; i < breaches.size(); ++i) {
        report.recorded.push_back(breach_from_json(breaches.at(i)));
      }
    }
    if (health.has("sketches")) {
      const JsonValue& sketches = health.at("sketches");
      if (sketches.has("engine/solve_seconds")) {
        const double p99_ms =
            sketches.at("engine/solve_seconds").at("p99").as_number() * 1e3;
        if (p99_ms > config.solve_p99_ms) {
          report.evaluated.push_back(
              {"solve_p99_ms", 0, p99_ms, config.solve_p99_ms});
        }
      }
      if (sketches.has("engine/congestion")) {
        const double watermark =
            sketches.at("engine/congestion").at("max").as_number();
        if (watermark > config.max_congestion) {
          report.evaluated.push_back(
              {"max_congestion", 0, watermark, config.max_congestion});
        }
      }
    }
  }
  if (artifact.has("quality")) {
    // Re-check the quality block: worst sampled regret and worst scored
    // MAPE against the config's quality bounds.
    const JsonValue& quality = artifact.at("quality");
    if (quality.has("regret")) {
      const JsonValue& regret = quality.at("regret");
      if (regret.has("max") && regret.at("epochs").size() > 0) {
        const double worst = regret.at("max").as_number();
        if (worst > config.max_regret) {
          report.evaluated.push_back(
              {"max_regret", 0, worst, config.max_regret});
        }
      }
    }
    if (quality.has("predictor")) {
      const JsonValue& predictor = quality.at("predictor");
      if (predictor.has("mape_max") &&
          predictor.at("scored_epochs").as_number() > 0) {
        const double worst = predictor.at("mape_max").as_number();
        if (worst > config.max_predictor_mape) {
          report.evaluated.push_back(
              {"max_predictor_mape", 0, worst, config.max_predictor_mape});
        }
      }
    }
  }
  if (config.min_cache_hit_rate > 0 && artifact.has("cache")) {
    const JsonValue& cache = artifact.at("cache");
    const double rate = hit_rate(
        cache.at("hits").as_number() + cache.at("disk_hits").as_number(),
        cache.at("misses").as_number());
    if (rate >= 0 && rate < config.min_cache_hit_rate) {
      report.evaluated.push_back(
          {"cache_hit_rate", 0, rate, config.min_cache_hit_rate});
    }
  }
  report.status =
      report.recorded.empty() && report.evaluated.empty() ? 0 : 1;
  return report;
}

}  // namespace sor::telemetry
