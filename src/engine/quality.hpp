#pragma once

// Routing-quality observatory for the epoch controller.
//
// Operational health (latency, RSS, SLOs) says whether the control loop
// is *running well*; this module says whether it is *routing well* — the
// axis the paper's competitive-ratio bound actually speaks to. Three
// per-epoch signals:
//
//  * regret   — achieved congestion over the shadow-optimal MCF value for
//               the realized matrix on the surviving graph
//               (min_congestion_routing, under the "lp/shadow" span),
//               sampled every `shadow_every` epochs to bound cost;
//  * predictor— per-pair relative error of the pending prediction vs the
//               realized matrix (score_prediction: MAPE + worst pair);
//  * churn    — path-system stability between consecutive installs:
//               activation-mask Hamming churn (flags that flipped plus
//               ids appended since), split weight L1 drift, and per-pair
//               top-path flips.
//
// Sampling contract: shadow epochs are `epoch % shadow_every == 0`, a
// pure function of the epoch index — replay visits the same epochs. Every
// quality figure is deterministic in (graph, system, trace, seed), so
// record/replay reproduces quality blocks byte for byte; they are still
// EXCLUDED from the replay digest v1 so digests predate and postdate the
// observatory identically. QualityOptions ride EngineOptions but, like
// solve_deadline_ms and the SLO config, are NOT part of the replay record
// format — replay reruns pass --shadow-every again.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/path_system.hpp"
#include "demand/demand.hpp"
#include "engine/predictor.hpp"
#include "telemetry/json.hpp"

namespace sor::engine {

struct QualityOptions {
  /// Run the shadow-optimal solve on epochs where epoch % shadow_every ==
  /// 0 (so epoch 0 is always sampled). 0 disables shadow solves; the
  /// predictor and churn signals are always on.
  std::size_t shadow_every = 0;
  /// Target relative gap of the shadow MCF. Regret is measured against
  /// the primal shadow value, so it can undershoot 1 by at most
  /// 1/(1+shadow_epsilon).
  double shadow_epsilon = 0.05;
};

/// Per-epoch quality figures. Sentinels: predictor_mape < 0 means "no
/// pending prediction" (the bootstrap epoch); shadow_sampled == false
/// means the regret fields are meaningless for this epoch.
struct EpochQuality {
  bool shadow_sampled = false;
  /// Shadow-optimal congestion (MCF primal) for the realized matrix, on
  /// the graph of the links alive this epoch.
  double shadow_opt = 0;
  /// Certified lower bound from the shadow solve.
  double shadow_lower_bound = 0;
  /// achieved_congestion / shadow_opt (0 when unsampled or shadow_opt 0).
  double regret = 0;
  bool shadow_truncated = false;

  /// score_prediction of the pending prediction (-1 on bootstrap).
  double predictor_mape = -1;
  double worst_pair_error = 0;
  Vertex worst_src = kInvalidVertex;
  Vertex worst_dst = kInvalidVertex;

  /// Activation-mask Hamming distance vs the previous epoch (0 on the
  /// first epoch — there is no previous mask to differ from).
  std::size_t mask_churn = 0;
  /// Σ over (pair, path) of |fraction − previous fraction| (absent = 0).
  double weight_l1_drift = 0;
  /// Pairs installed in both epochs whose largest-fraction path changed.
  std::size_t top_path_flips = 0;
};

/// Tracks install-to-install stability. Feed every epoch's post-install
/// state; churn fields compare against the previous call's snapshots.
class QualityTracker {
 public:
  explicit QualityTracker(QualityOptions options) : options_(options) {}

  const QualityOptions& options() const { return options_; }

  /// True when `epoch` is a shadow-solve sample point.
  bool shadow_due(std::size_t epoch) const {
    return options_.shadow_every > 0 && epoch % options_.shadow_every == 0;
  }

  /// Computes the churn fields of `q`: `installed` against `previous`,
  /// the table it replaced (nullptr on the first install, whose churn is
  /// all zero), and the mask against its flags at the previous call.
  void observe_install(const PathActivation& activation,
                       const SplitTable* previous, const SplitTable& installed,
                       EpochQuality& q);

 private:
  QualityOptions options_;
  std::vector<char> prev_flags_;
};

struct ControlLoopResult;  // controller.hpp

/// The artifact/CLI `"quality"` block for a finished run: shadow_every,
/// the sampled regret series with aggregates, the per-epoch predictor
/// series, and the churn series. Deterministic in the run's reports, so
/// two byte-identical runs dump byte-identical blocks — the record/replay
/// quality fixture compares these files directly.
telemetry::JsonValue quality_to_json(const ControlLoopResult& result,
                                     const QualityOptions& options);

}  // namespace sor::engine
