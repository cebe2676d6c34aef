#include "telemetry/sketch.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "telemetry/telemetry.hpp"

namespace sor::telemetry {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }
}  // namespace

Sketch::Sketch()
    : buckets_(kNumBuckets),
      sum_bits_(to_bits(0.0)),
      min_bits_(to_bits(kInf)),
      max_bits_(to_bits(-kInf)) {}

std::size_t Sketch::bucket_index(double v) {
  if (!(v > 0)) return 0;  // zero, negative, NaN
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const int exponent = static_cast<int>((bits >> 52) & 0x7FF) - 1023;
  if (exponent < kMinExponent) return 1;  // underflow: smallest log bucket
  if (exponent > kMaxExponent) return kNumBuckets - 1;  // overflow clamp
  const auto sub = static_cast<std::size_t>((bits >> 48) & 0xF);
  return 1 +
         static_cast<std::size_t>(exponent - kMinExponent) * kSubBuckets + sub;
}

double Sketch::bucket_lower_bound(std::size_t index) {
  if (index == 0) return 0.0;
  const std::size_t i = std::min(index, kNumBuckets - 1) - 1;
  const int exponent = kMinExponent + static_cast<int>(i / kSubBuckets);
  const std::uint64_t sub = i % kSubBuckets;
  // Assemble 2^exponent * (1 + sub/16) directly from bits so the
  // representative is exact and identical on every platform.
  const std::uint64_t bits =
      (static_cast<std::uint64_t>(exponent + 1023) << 52) | (sub << 48);
  return std::bit_cast<double>(bits);
}

namespace {

/// CAS-combine a double held as bits in an atomic<uint64_t>.
template <typename Combine>
void atomic_combine(std::atomic<std::uint64_t>& bits, double x, Combine&& f) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (true) {
    const double combined = f(from_bits(cur), x);
    if (bits.compare_exchange_weak(cur, to_bits(combined),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

void Sketch::observe(double v) {
  if (!enabled()) return;
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_combine(sum_bits_, v, [](double a, double x) { return a + x; });
  atomic_combine(min_bits_, v,
                 [](double a, double x) { return x < a ? x : a; });
  atomic_combine(max_bits_, v,
                 [](double a, double x) { return x > a ? x : a; });
}

SketchSnapshot Sketch::snapshot() const {
  SketchSnapshot s;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c > 0) s.buckets.emplace_back(static_cast<std::uint32_t>(i), c);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = from_bits(sum_bits_.load(std::memory_order_relaxed));
  if (s.count > 0) {
    s.min = from_bits(min_bits_.load(std::memory_order_relaxed));
    s.max = from_bits(max_bits_.load(std::memory_order_relaxed));
  }
  return s;
}

void Sketch::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(to_bits(0.0), std::memory_order_relaxed);
  min_bits_.store(to_bits(kInf), std::memory_order_relaxed);
  max_bits_.store(to_bits(-kInf), std::memory_order_relaxed);
}

double sketch_quantile(const SketchSnapshot& snap, double q) {
  if (snap.count == 0 || snap.buckets.empty()) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(snap.count - 1) + 0.5);
  std::uint64_t seen = 0;
  for (const auto& [index, count] : snap.buckets) {
    seen += count;
    if (seen > rank) return Sketch::bucket_lower_bound(index);
  }
  return Sketch::bucket_lower_bound(snap.buckets.back().first);
}

StatsSummary Sketch::summarize_snapshot(const SketchSnapshot& snap) {
  StatsSummary s;
  s.count = snap.count;
  if (snap.count == 0) return s;
  s.mean = snap.sum / static_cast<double>(snap.count);
  s.p50 = sketch_quantile(snap, 0.50);
  s.p95 = sketch_quantile(snap, 0.95);
  s.p99 = sketch_quantile(snap, 0.99);
  s.max = snap.max;
  return s;
}

SketchSnapshot merge_sketch_snapshots(std::span<const SketchSnapshot> parts) {
  SketchSnapshot out;
  std::vector<std::uint64_t> dense(Sketch::kNumBuckets, 0);
  bool have_extrema = false;
  for (const SketchSnapshot& part : parts) {
    for (const auto& [index, count] : part.buckets) {
      dense[std::min<std::size_t>(index, Sketch::kNumBuckets - 1)] += count;
    }
    out.count += part.count;
    out.sum += part.sum;
    if (part.count > 0) {
      if (!have_extrema) {
        out.min = part.min;
        out.max = part.max;
        have_extrema = true;
      } else {
        out.min = std::min(out.min, part.min);
        out.max = std::max(out.max, part.max);
      }
    }
  }
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] > 0) {
      out.buckets.emplace_back(static_cast<std::uint32_t>(i), dense[i]);
    }
  }
  return out;
}

}  // namespace sor::telemetry
