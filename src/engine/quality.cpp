#include "engine/quality.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "engine/controller.hpp"
#include "util/stats.hpp"

namespace sor::engine {

namespace {

// Σ fractions in path order.
double weight_sum(const SplitRows& rows) {
  double sum = 0;
  for (const SplitRow row : rows) sum += row.fraction;
  return sum;
}

// The largest-fraction row; rows are path-sorted, so ties resolve to the
// lexicographically smallest path.
PathView top_path(const SplitRows& rows) {
  SplitRow top = rows.front();
  for (const SplitRow row : rows) {
    if (row.fraction > top.fraction) top = row;
  }
  return top.path;
}

}  // namespace

void QualityTracker::observe_install(const PathActivation& activation,
                                     const SplitTable* previous,
                                     const SplitTable& installed,
                                     EpochQuality& q) {
  if (previous != nullptr) {
    q.mask_churn = activation.churn_since(prev_flags_);

    // Merge the sorted pair lists: L1 drift over the union, top-path
    // flips over the intersection.
    const std::span<const SplitPair> prev = previous->pairs();
    const std::span<const SplitPair> cur = installed.pairs();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < prev.size() && j < cur.size()) {
      if (prev[i].pair == cur[j].pair) {
        // Both epochs installed this pair: row-level L1 over the union of
        // paths (both row lists are path-sorted).
        const SplitRows before = previous->rows(prev[i]);
        const SplitRows after = installed.rows(cur[j]);
        std::size_t a = 0;
        std::size_t b = 0;
        while (a < before.size() && b < after.size()) {
          if (before[a].path == after[b].path) {
            q.weight_l1_drift +=
                std::abs(after[b].fraction - before[a].fraction);
            ++a;
            ++b;
          } else if (path_lexicographic_less(before[a].path, after[b].path)) {
            q.weight_l1_drift += before[a].fraction;
            ++a;
          } else {
            q.weight_l1_drift += after[b].fraction;
            ++b;
          }
        }
        for (; a < before.size(); ++a) q.weight_l1_drift += before[a].fraction;
        for (; b < after.size(); ++b) q.weight_l1_drift += after[b].fraction;
        if (!(top_path(before) == top_path(after))) ++q.top_path_flips;
        ++i;
        ++j;
      } else if (prev[i].pair < cur[j].pair) {
        q.weight_l1_drift += weight_sum(previous->rows(prev[i]));
        ++i;
      } else {
        q.weight_l1_drift += weight_sum(installed.rows(cur[j]));
        ++j;
      }
    }
    for (; i < prev.size(); ++i) {
      q.weight_l1_drift += weight_sum(previous->rows(prev[i]));
    }
    for (; j < cur.size(); ++j) {
      q.weight_l1_drift += weight_sum(installed.rows(cur[j]));
    }
  }

  prev_flags_.assign(activation.flags().begin(), activation.flags().end());
}

telemetry::JsonValue quality_to_json(const ControlLoopResult& result,
                                     const QualityOptions& options) {
  using telemetry::JsonValue;
  JsonValue quality = JsonValue::object();
  quality.set("shadow_every",
              static_cast<std::uint64_t>(options.shadow_every));
  quality.set("shadow_epsilon", options.shadow_epsilon);
  quality.set("epochs", static_cast<std::uint64_t>(result.epochs.size()));

  // Regret: parallel arrays over the sampled epochs only.
  JsonValue regret = JsonValue::object();
  JsonValue regret_epochs = JsonValue::array();
  JsonValue achieved = JsonValue::array();
  JsonValue shadow_opt = JsonValue::array();
  JsonValue lower_bound = JsonValue::array();
  JsonValue ratio = JsonValue::array();
  std::vector<double> ratios;
  std::uint64_t truncated = 0;
  for (const EpochReport& r : result.epochs) {
    if (!r.quality.shadow_sampled) continue;
    regret_epochs.push(static_cast<std::uint64_t>(r.epoch));
    achieved.push(r.congestion);
    shadow_opt.push(r.quality.shadow_opt);
    lower_bound.push(r.quality.shadow_lower_bound);
    ratio.push(r.quality.regret);
    ratios.push_back(r.quality.regret);
    if (r.quality.shadow_truncated) ++truncated;
  }
  quality.set("shadow_solves", static_cast<std::uint64_t>(ratios.size()));
  regret.set("epochs", std::move(regret_epochs));
  regret.set("achieved", std::move(achieved));
  regret.set("shadow_opt", std::move(shadow_opt));
  regret.set("lower_bound", std::move(lower_bound));
  regret.set("ratio", std::move(ratio));
  regret.set("truncated", truncated);
  const StatsSummary regret_summary = summarize(ratios);
  regret.set("p50", regret_summary.p50);
  regret.set("p95", regret_summary.p95);
  regret.set("max", regret_summary.max);
  quality.set("regret", std::move(regret));

  // Predictor: per-epoch arrays (full length; -1 / null sentinels on the
  // bootstrap epoch, which has no pending prediction to score).
  JsonValue predictor = JsonValue::object();
  JsonValue mape = JsonValue::array();
  JsonValue worst_error = JsonValue::array();
  JsonValue worst_pair = JsonValue::array();
  std::vector<double> mapes;
  for (const EpochReport& r : result.epochs) {
    mape.push(r.quality.predictor_mape);
    worst_error.push(r.quality.worst_pair_error);
    if (r.quality.predictor_mape < 0 ||
        r.quality.worst_src == kInvalidVertex) {
      worst_pair.push(JsonValue());
    } else {
      JsonValue pair = JsonValue::array();
      pair.push(static_cast<std::uint64_t>(r.quality.worst_src));
      pair.push(static_cast<std::uint64_t>(r.quality.worst_dst));
      worst_pair.push(std::move(pair));
    }
    if (r.quality.predictor_mape >= 0) {
      mapes.push_back(r.quality.predictor_mape);
    }
  }
  predictor.set("mape", std::move(mape));
  predictor.set("worst_pair_error", std::move(worst_error));
  predictor.set("worst_pair", std::move(worst_pair));
  const StatsSummary mape_summary = summarize(mapes);
  predictor.set("scored_epochs", static_cast<std::uint64_t>(mapes.size()));
  predictor.set("mape_mean", mape_summary.mean);
  predictor.set("mape_max", mape_summary.max);
  quality.set("predictor", std::move(predictor));

  // Churn: per-epoch stability series.
  JsonValue churn = JsonValue::object();
  JsonValue mask = JsonValue::array();
  JsonValue weight = JsonValue::array();
  JsonValue flips = JsonValue::array();
  std::uint64_t total_flips = 0;
  for (const EpochReport& r : result.epochs) {
    mask.push(static_cast<std::uint64_t>(r.quality.mask_churn));
    weight.push(r.quality.weight_l1_drift);
    flips.push(static_cast<std::uint64_t>(r.quality.top_path_flips));
    total_flips += r.quality.top_path_flips;
  }
  churn.set("mask_hamming", std::move(mask));
  churn.set("weight_l1", std::move(weight));
  churn.set("top_path_flips", std::move(flips));
  churn.set("total_top_path_flips", total_flips);
  quality.set("churn", std::move(churn));

  return quality;
}

}  // namespace sor::engine
