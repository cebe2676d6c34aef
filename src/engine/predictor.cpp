#include "engine/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "util/check.hpp"

namespace sor::engine {

double relative_l1_error(const Demand& predicted, const Demand& realized) {
  double diff = 0;
  for (const auto& [pair, amount] : realized.entries()) {
    diff += std::abs(predicted.at(pair.a, pair.b) - amount);
  }
  for (const auto& [pair, amount] : predicted.entries()) {
    if (realized.at(pair.a, pair.b) == 0) diff += amount;
  }
  const double total = realized.total();
  return total > 0 ? diff / total : 0.0;
}

PredictorScore score_prediction(const Demand& predicted,
                                const Demand& realized) {
  // Union support in sorted order: the sum and the worst-pair tie-break
  // must not depend on hash-map layout.
  std::vector<VertexPair> support;
  support.reserve(realized.entries().size() + predicted.entries().size());
  for (const auto& [pair, amount] : realized.entries()) {
    support.push_back(pair);
  }
  for (const auto& [pair, amount] : predicted.entries()) {
    if (realized.at(pair.a, pair.b) == 0) support.push_back(pair);
  }
  std::sort(support.begin(), support.end(),
            [](const VertexPair& x, const VertexPair& y) {
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });

  PredictorScore score;
  double sum = 0;
  for (const VertexPair& pair : support) {
    const double r = realized.at(pair.a, pair.b);
    const double p = predicted.at(pair.a, pair.b);
    const double error = r > 0 ? std::abs(p - r) / r : 1.0;
    sum += error;
    ++score.pairs;
    if (score.pairs == 1 || error > score.worst_error) {
      score.worst_error = error;
      score.worst_src = pair.a;
      score.worst_dst = pair.b;
    }
  }
  if (score.pairs > 0) score.mape = sum / static_cast<double>(score.pairs);
  return score;
}

std::optional<ScoredPrediction> DemandPredictor::observe(
    const Demand& realized) {
  std::optional<ScoredPrediction> scored;
  if (observations_ > 0) {
    scored.emplace();
    scored->predicted = predict_impl();
    scored->error = relative_l1_error(scored->predicted, realized);
    scored->score = score_prediction(scored->predicted, realized);
    errors_.push_back(scored->error);
    mapes_.push_back(scored->score.mape);
  }
  update(realized);
  ++observations_;
  return scored;
}

Demand DemandPredictor::predict() const {
  return observations_ == 0 ? Demand{} : predict_impl();
}

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {
  SOR_CHECK(alpha > 0 && alpha <= 1);
}

std::string EwmaPredictor::name() const { return "ewma"; }

void EwmaPredictor::update(const Demand& realized) {
  if (observations() == 0) {
    state_ = realized;
    return;
  }
  Demand next;
  for (const auto& [pair, amount] : state_.entries()) {
    const double blended =
        (1.0 - alpha_) * amount + alpha_ * realized.at(pair.a, pair.b);
    next.add(pair.a, pair.b, blended);
  }
  for (const auto& [pair, amount] : realized.entries()) {
    if (state_.at(pair.a, pair.b) == 0) {
      next.add(pair.a, pair.b, alpha_ * amount);
    }
  }
  state_ = std::move(next);
}

Demand EwmaPredictor::predict_impl() const { return state_; }

PeakPredictor::PeakPredictor(std::size_t window) : window_(window) {
  SOR_CHECK(window > 0);
}

std::string PeakPredictor::name() const { return "peak"; }

void PeakPredictor::update(const Demand& realized) {
  history_.push_back(realized);
  if (history_.size() > window_) history_.pop_front();
}

Demand PeakPredictor::predict_impl() const {
  Demand peak;
  // Collect the union support, then take the per-pair max.
  for (const Demand& d : history_) {
    for (const auto& [pair, amount] : d.entries()) {
      const double current = peak.at(pair.a, pair.b);
      if (amount > current) {
        peak.add(pair.a, pair.b, amount - current);
      }
    }
  }
  return peak;
}

std::unique_ptr<DemandPredictor> make_predictor(PredictorKind kind,
                                                double ewma_alpha,
                                                std::size_t peak_window) {
  switch (kind) {
    case PredictorKind::kEwma:
      return std::make_unique<EwmaPredictor>(ewma_alpha);
    case PredictorKind::kPeak:
      return std::make_unique<PeakPredictor>(peak_window);
  }
  SOR_CHECK_MSG(false, "unknown predictor kind");
  return nullptr;
}

}  // namespace sor::engine
