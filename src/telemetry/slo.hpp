#pragma once

// Declarative SLO tracker for the control loop.
//
// An SloConfig names the health bounds a run must hold: the maximum
// acceptable congestion ratio, a solve-latency p99 budget, and a cache
// hit-rate floor. Every bound defaults to "disabled", so an empty config
// never breaches. The control loop evaluates the tracker at each epoch
// boundary; each violation becomes an SloBreach that is
//   - returned to the caller (ControlLoopResult carries the run's list),
//   - appended to the telemetry::Registry breach list (exported in the
//     artifact `health` block), and
//   - recorded as a structured "slo/breach" flight-recorder event,
// and any breach flips the run's health status to nonzero.
//
// The config is deliberately NOT part of the engine replay record: like
// solve_deadline_ms, SLO evaluation reads wall-clock latency sketches, so
// breach sets are not byte-replayable and must not enter the digest.
//
// One rule, slo_breaches(), applies the bounds to five figures, both per
// epoch (SloTracker) and offline: evaluate_artifact_slo()
// (telemetry/ledger.hpp) applies it to a BENCH_*.json artifact's
// run-ledger summary — the `sor_cli slo` subcommand, which exits nonzero
// when the artifact violates the config or recorded breaches at run time.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace sor::telemetry {

struct SloConfig {
  /// Max acceptable realized congestion ratio per epoch.
  double max_congestion = std::numeric_limits<double>::infinity();
  /// Solve-latency p99 budget in milliseconds (from the run's solve
  /// sketch so far).
  double solve_p99_ms = std::numeric_limits<double>::infinity();
  /// Floor on the artifact-cache hit rate; epochs with no cache traffic
  /// are skipped. 0 disables.
  double min_cache_hit_rate = 0;
  /// Max acceptable regret ratio (achieved / shadow-optimal congestion)
  /// on shadow-sampled epochs; unsampled epochs are skipped. Only
  /// meaningful when the quality observatory's shadow solve is on.
  double max_regret = std::numeric_limits<double>::infinity();
  /// Max acceptable predictor MAPE per scored epoch (the bootstrap epoch,
  /// which has no pending prediction, is skipped).
  double max_predictor_mape = std::numeric_limits<double>::infinity();

  bool any_set() const {
    return max_congestion != std::numeric_limits<double>::infinity() ||
           solve_p99_ms != std::numeric_limits<double>::infinity() ||
           min_cache_hit_rate > 0 ||
           max_regret != std::numeric_limits<double>::infinity() ||
           max_predictor_mape != std::numeric_limits<double>::infinity();
  }
};

/// Parses a config from its JSON text: an object with any subset of the
/// keys "max_congestion", "solve_p99_ms", "min_cache_hit_rate",
/// "max_regret", "max_predictor_mape". Unknown keys are an error (they
/// would silently disable the intended bound).
SloConfig parse_slo_config(const std::string& text);

/// Reads and parses a config file (throws CheckError when unreadable).
SloConfig load_slo_config(const std::string& path);

/// The one SLO rule: the bounds of `config` applied to one set of
/// figures, in the order congestion, solve p99, cache hit rate, regret,
/// predictor MAPE. A negative figure means "absent" and skips its bound
/// (`cache_hit_rate < 0` = no cache traffic, `regret < 0` = not a
/// shadow-sampled epoch, `predictor_mape < 0` = bootstrap epoch). Pure:
/// returns the breaches, stamped `epoch`, and records nothing.
std::vector<SloBreach> slo_breaches(const SloConfig& config,
                                    std::uint64_t epoch, double congestion,
                                    double solve_p99_ms, double cache_hit_rate,
                                    double regret, double predictor_mape);

class SloTracker {
 public:
  SloTracker() = default;
  explicit SloTracker(SloConfig config) : config_(config) {}

  const SloConfig& config() const { return config_; }
  bool active() const { return config_.any_set(); }

  /// Applies slo_breaches() to one epoch's health and quality figures
  /// and records every violation (registry breach list + flight
  /// recorder). Returns this epoch's breaches.
  std::vector<SloBreach> check_epoch(std::uint64_t epoch, double congestion,
                                     double solve_p99_ms,
                                     double cache_hit_rate,
                                     double regret = -1,
                                     double predictor_mape = -1);

 private:
  SloConfig config_;
};

}  // namespace sor::telemetry
