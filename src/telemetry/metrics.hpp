#pragma once

// Runtime health exporters over telemetry::Registry: the artifact
// `health` block, per-epoch JSONL snapshots, and the Prometheus text
// exposition. The registry's sketches, metrics and breach list are the
// data; this file only renders them.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace sor::telemetry {

/// The artifact `health` block (schema v10): kill-switch state, recorder
/// drop counters, sketch snapshots with quantiles (each sketch's exact
/// max is its watermark), the breach list, and the 0/1 health status.
JsonValue health_to_json();

/// One JSONL snapshot line for epoch `epoch`: the running sketch
/// summaries at that epoch's boundary. `sor_cli monitor --health-jsonl`
/// appends one such line per epoch.
JsonValue epoch_health_json(std::uint64_t epoch);

/// Escapes a label VALUE per the Prometheus text exposition format:
/// backslash -> \\, double-quote -> \", newline -> \n. Telemetry keys
/// are free-form strings, so anything that flows into a label value
/// (e.g. memory subsystem names) must pass through here.
std::string prometheus_escape_label(std::string_view value);

/// Escapes a HELP string: backslash -> \\ and newline -> \n (quotes are
/// legal in HELP text and stay as-is).
std::string prometheus_escape_help(std::string_view text);

/// Prometheus text exposition of the full telemetry state: each registry
/// counter, gauge, and sketch once (sketches as summaries with quantile
/// labels), and the memory accountant's per-subsystem figures (subsystem
/// label). Metric names are sanitized ("/" and other non-alphanumerics
/// become "_") and prefixed "sor_"; each metric carries a HELP line with
/// the raw (escaped) telemetry key.
std::string prometheus_text();

/// Writes prometheus_text() to `os`.
void write_prometheus(std::ostream& os);

}  // namespace sor::telemetry
