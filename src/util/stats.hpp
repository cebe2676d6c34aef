#pragma once

// Streaming and batch statistics used by the experiment harnesses.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace sor {

/// Compact distribution summary used by tables, logs, and the telemetry
/// sketch exporters. An empty distribution summarizes to all zeros.
struct StatsSummary {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Exact summary of a sample (quantiles by nearest-rank on the sorted
/// data). Inline so the telemetry library can use it without linking
/// sor_util.
inline StatsSummary summarize(std::span<const double> data) {
  StatsSummary s;
  s.count = data.size();
  if (data.empty()) return s;
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0;
  for (double x : sorted) sum += x;
  s.mean = sum / static_cast<double>(sorted.size());
  const auto rank = [&](double q) {
    const auto r = static_cast<std::size_t>(q *
        static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(r, sorted.size() - 1)];
  };
  s.p50 = rank(0.50);
  s.p95 = rank(0.95);
  s.p99 = rank(0.99);
  s.max = sorted.back();
  return s;
}

/// Share of lookups a cache served: served / (served + misses), or -1
/// when there was no lookup (so an SLO floor does not breach an idle
/// cache). The one hit-rate formula of the cache, the ledger and the SLO
/// check; inline for the same reason as summarize.
inline double hit_rate(double served, double misses) {
  const double lookups = served + misses;
  return lookups > 0 ? served / lookups : -1.0;
}

/// Streaming mean / variance (Welford) with min/max tracking.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance; 0 if fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Exact quantile of a sample (linear interpolation between order
/// statistics). q in [0, 1]; data must be non-empty.
double quantile(std::span<const double> data, double q);

/// Geometric mean; all entries must be positive.
double geometric_mean(std::span<const double> data);

/// Arithmetic mean; data must be non-empty.
double mean(std::span<const double> data);

/// Maximum element; data must be non-empty.
double max_value(std::span<const double> data);

}  // namespace sor
