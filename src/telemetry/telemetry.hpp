#pragma once

// Thread-safe metric registry: named counters, gauges, and log-bucketed
// sketches, plus the epoch windows and SLO breach list of the runtime
// health layer.
//
// Design goals, in order:
//  1. Negligible hot-path overhead. Metric objects live at stable
//     addresses for the process lifetime, so call sites intern them once
//     into a function-local static and afterwards pay one relaxed atomic
//     op per event (a few for a sketch). The registry lock is only taken
//     at interning time, at epoch rolls, and by exporters.
//  2. A process-wide kill switch: SOR_TELEMETRY=off (or 0) disables all
//     recording; disabled metrics are a single relaxed atomic-bool load.
//     Tests can override with set_enabled().
//  3. Exportability: everything is snapshotable into plain structs,
//     serialized by telemetry/export.hpp and telemetry/metrics.hpp.
//
// Each signal is recorded once, in one place. Counters accumulate over
// the whole run; the control loop calls roll_epoch() at each epoch
// boundary, which closes every counter's delta since the previous roll
// and every gauge's current value into a bounded per-epoch window.
// Windowing is epoch-INDEXED, not wall-clock driven, so windows are
// deterministic given the trace. Sketches hold distributions (latency,
// congestion, per-pair counts); every span also feeds the sketch
// "<span name>_seconds" (telemetry/span.hpp).
//
// Metric naming scheme (see DESIGN.md "Observability"): lower-case
// "<subsystem>/<event>" paths, e.g. "mwu/phases_cold", "sampler/paths_sampled".

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/sketch.hpp"

namespace sor::telemetry {

/// Whether recording is enabled. Initialized from SOR_TELEMETRY on first
/// use ("off"/"0" disables; anything else, including unset, enables).
bool enabled();

/// Test/CLI override of the kill switch.
void set_enabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Zeroes the count and its epoch-roll mark, so the next window holds
  /// the count since the reset rather than a wrapped difference.
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    mark_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> mark_{0};  // value at the last epoch roll
};

namespace detail {
std::uint64_t to_bits(double v);
double from_bits(std::uint64_t b);
}  // namespace detail

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (enabled()) bits_.store(detail::to_bits(v), std::memory_order_relaxed);
  }
  double value() const {
    return detail::from_bits(bits_.load(std::memory_order_relaxed));
  }
  void reset() { bits_.store(detail::to_bits(0.0), std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// One closed window: the value a series took over epoch `epoch`.
struct WindowPoint {
  std::uint64_t epoch = 0;
  double value = 0;
};

/// One SLO violation, produced by the tracker in telemetry/slo.hpp and
/// stored in the registry so exporters see every breach of the run.
struct SloBreach {
  std::string slo;  // "max_congestion" | "solve_p99_ms" | "cache_hit_rate"
  std::uint64_t epoch = 0;
  double value = 0;   // observed
  double budget = 0;  // configured bound it violated
};

/// Named window series, one per registered counter or gauge.
using WindowSeries =
    std::vector<std::pair<std::string, std::vector<WindowPoint>>>;

/// Name → metric map. Metrics are created on first access and live (at a
/// stable address) until process exit; lookups after interning are free.
class Registry {
 public:
  /// Per-series window ring bound: older epochs fall off the front.
  static constexpr std::size_t kWindowCapacity = 512;

  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Sketch& sketch(std::string_view name);

  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, SketchSnapshot>> sketches() const;

  /// Closes the current window under index `epoch`: each counter
  /// contributes its delta since the previous roll, each gauge its
  /// current value. No-op when telemetry is disabled.
  void roll_epoch(std::uint64_t epoch);
  std::uint64_t epochs_rolled() const;
  WindowSeries counter_windows() const;
  WindowSeries gauge_windows() const;

  /// Appends to the run's breach list (no-op when telemetry is disabled;
  /// the control loop still returns breaches in its result either way).
  void record_breach(const SloBreach& breach);
  std::vector<SloBreach> breaches() const;
  /// 0 when no breach has been recorded, 1 otherwise.
  int health_status() const;

  /// Zeroes every registered metric and clears the windows, roll marks,
  /// and breaches (registrations are kept, so interned references stay
  /// valid). For bench/test isolation, not hot paths.
  void reset();

 private:
  Registry() = default;

  template <typename Metric>
  struct Entry {
    std::unique_ptr<Metric> metric = std::make_unique<Metric>();
    std::vector<WindowPoint> window;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>, std::less<>> counters_;
  std::map<std::string, Entry<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Sketch>, std::less<>> sketches_;
  std::uint64_t epochs_rolled_ = 0;
  std::vector<SloBreach> breaches_;
};

}  // namespace sor::telemetry

/// Call-site helpers: intern once, then one relaxed atomic per event.
#define SOR_COUNTER(name)                                             \
  ([]() -> ::sor::telemetry::Counter& {                               \
    static ::sor::telemetry::Counter& c =                             \
        ::sor::telemetry::Registry::global().counter(name);           \
    return c;                                                         \
  }())

#define SOR_GAUGE(name)                                               \
  ([]() -> ::sor::telemetry::Gauge& {                                 \
    static ::sor::telemetry::Gauge& g =                               \
        ::sor::telemetry::Registry::global().gauge(name);             \
    return g;                                                         \
  }())

#define SOR_SKETCH(name)                                              \
  ([]() -> ::sor::telemetry::Sketch& {                                \
    static ::sor::telemetry::Sketch& s =                              \
        ::sor::telemetry::Registry::global().sketch(name);            \
    return s;                                                         \
  }())
