#pragma once

// Demand prediction for the epoch controller.
//
// A real control plane re-solves for the matrix it *expects*, not the one
// it will observe; the gap between the two is what the warm-started LP
// must absorb. Two standard TE predictors (Kulfi/SMORE practice):
//
//  * EWMA           — exponentially weighted moving average per pair;
//                     tracks slow drift, smooths jitter.
//  * peak-of-last-w — per-pair max over a sliding window; conservative
//                     (over-provisions), robust to bursts.
//
// Both score every prediction against the realized matrix (relative L1)
// and expose the error history as a StatsSummary for the epoch reports.

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "demand/demand.hpp"
#include "util/stats.hpp"

namespace sor::engine {

/// |predicted − realized|_1 / |realized|_1 over the union support
/// (0 if the realized matrix is empty).
double relative_l1_error(const Demand& predicted, const Demand& realized);

/// Per-pair scoring of one prediction against the realized matrix — the
/// quality observatory's predictor figure. Each pair in the union support
/// contributes its relative error |p − r| / r; "ghost" pairs the
/// predictor invented (r == 0, p > 0) contribute 1 by convention (100%
/// wrong, but bounded so one ghost cannot swamp the mean). The worst pair
/// is the first, in sorted (a, b) order, attaining the maximum error —
/// deterministic, so it replays byte-identically.
struct PredictorScore {
  /// Mean per-pair relative error over the union support (0 when both
  /// matrices are empty).
  double mape = 0;
  /// Union-support size.
  std::size_t pairs = 0;
  double worst_error = 0;
  /// Worst pair endpoints (kInvalidVertex when there are no pairs).
  Vertex worst_src = kInvalidVertex;
  Vertex worst_dst = kInvalidVertex;
};
PredictorScore score_prediction(const Demand& predicted,
                                const Demand& realized);

/// A pending prediction with its two scores against the realized matrix.
struct ScoredPrediction {
  Demand predicted;
  /// relative_l1_error(predicted, realized).
  double error = 0;
  /// score_prediction(predicted, realized).
  PredictorScore score;
};

class DemandPredictor {
 public:
  virtual ~DemandPredictor() = default;

  virtual std::string name() const = 0;

  /// Scores the pending prediction against `realized` (from the second
  /// observation on) and records both scores, then folds the matrix into
  /// the predictor state. Returns the scored prediction, nullopt on the
  /// first observation.
  std::optional<ScoredPrediction> observe(const Demand& realized);

  /// Prediction for the next epoch; empty before any observation (the
  /// controller bootstraps by routing the first realized matrix).
  Demand predict() const;

  std::size_t observations() const { return observations_; }

  /// Summary of the per-epoch relative L1 prediction errors so far.
  StatsSummary error_summary() const { return summarize(errors_); }

  /// Summary of the per-epoch MAPE scores so far (score_prediction of
  /// each pending prediction, recorded by observe() beside the L1 error).
  StatsSummary mape_summary() const { return summarize(mapes_); }

 protected:
  virtual void update(const Demand& realized) = 0;
  virtual Demand predict_impl() const = 0;

 private:
  std::size_t observations_ = 0;
  std::vector<double> errors_;
  std::vector<double> mapes_;
};

/// state ← (1−α)·state + α·realized, per pair over the union support.
class EwmaPredictor : public DemandPredictor {
 public:
  explicit EwmaPredictor(double alpha = 0.5);
  std::string name() const override;

 protected:
  void update(const Demand& realized) override;
  Demand predict_impl() const override;

 private:
  double alpha_;
  Demand state_;
};

/// Per-pair max over the last `window` observed matrices.
class PeakPredictor : public DemandPredictor {
 public:
  explicit PeakPredictor(std::size_t window = 4);
  std::string name() const override;

 protected:
  void update(const Demand& realized) override;
  Demand predict_impl() const override;

 private:
  std::size_t window_;
  std::deque<Demand> history_;
};

enum class PredictorKind { kEwma, kPeak };

std::unique_ptr<DemandPredictor> make_predictor(PredictorKind kind,
                                                double ewma_alpha = 0.5,
                                                std::size_t peak_window = 4);

}  // namespace sor::engine
