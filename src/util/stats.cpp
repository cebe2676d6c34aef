#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sor {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  SOR_CHECK(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  SOR_CHECK(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  SOR_CHECK(n_ > 0);
  return max_;
}

double quantile(std::span<const double> data, double q) {
  SOR_CHECK(!data.empty());
  SOR_CHECK(q >= 0 && q <= 1);
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

double geometric_mean(std::span<const double> data) {
  SOR_CHECK(!data.empty());
  double log_sum = 0;
  for (double x : data) {
    SOR_CHECK_MSG(x > 0, "geometric_mean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(data.size()));
}

double mean(std::span<const double> data) {
  SOR_CHECK(!data.empty());
  double sum = 0;
  for (double x : data) sum += x;
  return sum / static_cast<double>(data.size());
}

double max_value(std::span<const double> data) {
  SOR_CHECK(!data.empty());
  return *std::max_element(data.begin(), data.end());
}

}  // namespace sor
