#pragma once

// Thread-safe metric registry: named log-bucketed sketches, the one
// metric kind, plus the SLO breach list of the runtime health layer.
//
// Design goals, in order:
//  1. Negligible hot-path overhead. Sketches live at stable addresses for
//     the process lifetime, so call sites intern them once into a
//     function-local static and afterwards pay a few relaxed atomic ops
//     per observation. The registry lock is only taken at interning time
//     and by exporters.
//  2. A process-wide kill switch: SOR_TELEMETRY=off (or 0) disables all
//     recording; disabled metrics are a single relaxed atomic-bool load.
//     Tests can override with set_enabled().
//  3. Exportability: everything is snapshotable into plain structs,
//     serialized by telemetry/export.hpp and telemetry/metrics.hpp.
//
// Each signal is recorded once, in one place, and only when something
// reads it: a figure the code already keeps (a solver result, an epoch
// report, CacheStats, a flight-recorder event) is not mirrored here.
// A sketch holds a distribution (latency, congestion, bytes, per-pair
// counts) with an exact count, sum, min and max, so a run total is its
// sum and a last-value or high-water figure is covered by its range.
// Every span also feeds the sketch "<span name>_seconds"
// (telemetry/span.hpp); a span's working-set bytes go to
// "<span name>_bytes".
//
// Metric naming scheme (see DESIGN.md "Observability"): lower-case
// "<subsystem>/<event>" paths, e.g. "lp/simplex_bytes",
// "engine/congestion".

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

/// One SLO violation, produced by the tracker in telemetry/slo.hpp and
/// stored in the registry so exporters see every breach of the run.
struct SloBreach {
  std::string slo;  // "max_congestion" | "solve_p99_ms" | "cache_hit_rate"
  std::uint64_t epoch = 0;
  double value = 0;   // observed
  double budget = 0;  // configured bound it violated
};

/// Name → sketch map. Sketches are created on first access and live (at a
/// stable address) until process exit; lookups after interning are free.
class Registry {
 public:
  static Registry& global();

  Sketch& sketch(std::string_view name);

  std::vector<std::pair<std::string, SketchSnapshot>> sketches() const;

  /// Appends to the run's breach list (no-op when telemetry is disabled;
  /// the control loop still returns breaches in its result either way).
  void record_breach(const SloBreach& breach);
  std::vector<SloBreach> breaches() const;
  /// 0 when no breach has been recorded, 1 otherwise.
  int health_status() const;

  /// Zeroes every registered sketch and clears the breaches
  /// (registrations are kept, so interned references stay valid). For
  /// bench/test isolation, not hot paths.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Sketch>, std::less<>> sketches_;
  std::vector<SloBreach> breaches_;
};

}  // namespace sor::telemetry

/// Call-site helper: intern once, then a few relaxed atomics per
/// observation.
#define SOR_SKETCH(name)                                              \
  ([]() -> ::sor::telemetry::Sketch& {                                \
    static ::sor::telemetry::Sketch& s =                              \
        ::sor::telemetry::Registry::global().sketch(name);            \
    return s;                                                         \
  }())
