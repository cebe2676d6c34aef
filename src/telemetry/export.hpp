#pragma once

// Serialization of the span forest, the convergence traces and the
// flight recorder. The registry's sketches export in the `health` block
// (telemetry/metrics.hpp).
//
// JSON shapes (consumed by BENCH_*.json tooling — see EXPERIMENTS.md):
//
//   spans_to_json() ->
//     [{"name": str, "count": n, "seconds": s, "children": [...]}, ...]

#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"

namespace sor::telemetry {

/// Convergence-trace snapshot (artifact schema v3 "convergence" block):
///   {"capacity": n, "dropped": d,
///    "traces": [{"solver": str, "label": str, "iterations": n,
///                "max_points": n, "truncated": bool,
///                "counters": {name: integer, ...},
///                "points": [{"iteration": n, "t": seconds,
///                            "objective": x, "bound": x, "gap": x}, ...]},
///               ...]}
/// Within a trace, "objective" is non-increasing, "bound" non-decreasing,
/// "gap" non-increasing and >= 0 once known (-1 = unknown sentinel), and
/// points.size() <= max_points — check_bench_json enforces all four.
JsonValue convergence_to_json(
    const ConvergenceCollector& collector = ConvergenceCollector::global());

JsonValue spans_to_json(const std::vector<SpanSnapshot>& spans);
JsonValue spans_to_json();  // snapshot_spans() of the global forest

/// Flight-recorder snapshot:
///   {"capacity": n, "dropped": d, "total": t,
///    "events": [{"t": seconds, "category": str, "fields": {...}}, ...]}
/// Events are oldest-first with non-decreasing "t".
JsonValue recorder_to_json(const Recorder& recorder = Recorder::global());

/// Chrome trace-event document (load in chrome://tracing or Perfetto):
/// completed timeline spans as "X" (complete) events, flight-recorder
/// events as "i" (instant) events, and convergence-trace points as "C"
/// (counter) events (one counter track per solver/label, plotting
/// objective and bound over time), merged and sorted by timestamp.
/// Timestamps/durations are microseconds on the monotonic_seconds() base.
JsonValue chrome_trace_json(const std::vector<TimelineEvent>& timeline,
                            const std::vector<RecorderEvent>& events,
                            const std::vector<ConvergenceTrace>& traces = {});
JsonValue chrome_trace_json();  // global timeline + recorder + convergence

}  // namespace sor::telemetry
