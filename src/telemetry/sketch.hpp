#pragma once

// Mergeable log-bucketed value sketch (HDR-histogram style): the one
// distribution type of the telemetry layer, for latency and congestion
// tails and per-pair counts alike.
//
// Bucket boundaries are FIXED, derived from the raw IEEE-754 bits of the
// observed value: the unbiased exponent selects an octave and the top
// four mantissa bits split each octave into 16 sub-buckets, giving a
// worst-case relative error of 1/16 (~6%) per bucket. Because the
// boundaries never depend on the data, on insertion order, or on the
// number of observing threads:
//   - quantiles are bit-stable: p50/p95/p99 return the fixed lower-bound
//     representative of the bucket holding the nearest-rank observation
//     (the same nearest-rank convention as sor::summarize);
//   - sketches merge exactly: merging per-worker sketches is integer
//     bucket-count addition, commutative and lossless, so a sharded
//     observation stream summarizes byte-identically to a single-threaded
//     one (the PR 5 determinism contract extended to telemetry);
//   - min/max are tracked exactly via commutative CAS-combine, so the
//     reported max is the true maximum, not a bucket bound.
// The running `sum` is exact but CAS-accumulated in arrival order, so it
// is NOT covered by the bit-stability guarantee (document-only caveat;
// count, quantiles, min, and max are).
//
// The octave range [2^-30, 2^21) covers sub-nanosecond latencies up to
// ~2e6 in whatever unit the caller observes (seconds for timers). Byte
// sketches ("<span name>_bytes") outgrow it: an observation of 2 MiB or
// more reads, at every quantile, as the top bucket's lower bound
// (2 031 616), while its sum and max stay exact.
//
// Supported input domain (every double is accepted; what it MEANS):
//   - zero, negatives, and NaN land in bucket 0, the "non-positive"
//     bucket, whose representative is 0 — the sketch does not preserve
//     magnitude below zero;
//   - positive subnormals and values below 2^-30 underflow into the
//     FIRST log bucket (representative 2^-30), not bucket 0;
//   - values at or above 2^21 (including +inf) clamp into the TOP
//     bucket; quantiles then report the top bucket's lower bound, while
//     max reports the exact observed value;
//   - min/max CAS-combine exact values, so they are meaningful even for
//     observations the buckets clamp; NaN observations poison `sum`
//     (ordinary IEEE accumulation) but min/max comparisons skip NaN;
//   - a single observation reports every quantile as that observation's
//     bucket lower bound (nearest-rank with count == 1);
//   - merging empty snapshots yields an empty snapshot (count 0, all
//     quantiles 0), and merging an empty snapshot into a non-empty one
//     is the identity.
//
// Observation is behind the SOR_TELEMETRY kill switch: when disabled,
// observe() is a single relaxed atomic-bool load — no locks, no
// allocation, no bucket writes.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace sor::telemetry {

/// Plain-struct snapshot of a sketch: sparse (bucket index, count) pairs
/// in ascending index order plus exact count/sum/min/max.
struct SketchSnapshot {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;  // meaningful only when count > 0
  double max = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

class Sketch {
 public:
  /// Octave range: buckets span [2^kMinExponent, 2^(kMaxExponent + 1)).
  static constexpr int kMinExponent = -30;
  static constexpr int kMaxExponent = 20;
  static constexpr std::size_t kSubBuckets = 16;
  /// Bucket 0 is the zero/non-positive bucket; the rest are log buckets.
  static constexpr std::size_t kNumBuckets =
      1 + static_cast<std::size_t>(kMaxExponent - kMinExponent + 1) *
              kSubBuckets;

  Sketch();

  /// Records one observation. No-op when telemetry is disabled.
  void observe(double v);

  SketchSnapshot snapshot() const;

  /// count/mean/max exact; quantiles are bucket representatives.
  StatsSummary summary() const { return summarize_snapshot(snapshot()); }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  void reset();

  /// Bucket index an observation lands in. Pure function of the value's
  /// bits — no libm, no data dependence.
  static std::size_t bucket_index(double v);
  /// The fixed representative (lower bound) reported for a bucket.
  static double bucket_lower_bound(std::size_t index);

  static StatsSummary summarize_snapshot(const SketchSnapshot& snap);

 private:
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_;
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
};

/// Nearest-rank quantile over the snapshot's buckets (same convention as
/// sor::summarize): returns the lower-bound representative of the bucket
/// containing rank round(q * (count - 1)). 0 for an empty sketch.
double sketch_quantile(const SketchSnapshot& snap, double q);

/// Exact merge: bucket counts add, count/sum add, min/max combine. The
/// result is independent of the order of `parts` except for `sum`'s
/// floating-point rounding (parts are folded in the given index order,
/// so a fixed part order gives a bit-stable sum too).
SketchSnapshot merge_sketch_snapshots(std::span<const SketchSnapshot> parts);

}  // namespace sor::telemetry
