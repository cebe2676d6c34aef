#pragma once

// Reading BENCH_<id>.json artifacts: the one view of an artifact, a
// regression diff between two artifacts of the same experiment, and the
// path accessor and unit rule every reader of an artifact shares (the
// view, `diff`, the run ledger's summary, the offline SLO check and
// `trend`). This is the library half of `sor_cli report` / `sor_cli
// diff`; it lives here (not in the CLI) so the regression logic is unit
// tested without subprocesses, and kept Table-free so sor_telemetry still
// links nothing beyond Threads.

#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace sor::telemetry {

/// The artifact schema the benches write and check_bench_json accepts.
/// Bumped whenever a block is added or changes shape; EXPERIMENTS.md
/// keeps each block's version history.
inline constexpr int kArtifactSchemaVersion = 11;

/// Human-readable duration: "2.41 s", "13.2 ms", "870 µs", "95 ns".
/// Chooses the unit so the mantissa lands in [1, 1000) and keeps three
/// significant digits.
std::string format_seconds(double seconds);

/// Human-readable count/size: "312", "4.50k", "1.23M", "9.87G". Values
/// below 1000 print plainly (integers without a decimal point).
std::string format_quantity(double value);

/// A named figure (a health sketch, a ledger metric, an artifact key) in
/// its unit, by the one unit rule `diff` also compares by: "*_seconds" is
/// a duration in seconds and "*_ms" one in milliseconds, both rendered
/// with format_seconds; anything else is a quantity (format_quantity).
std::string format_metric(std::string_view name, double value);

/// The one path accessor: the node reached from `doc` by following
/// `path` through object members, or null when a step is missing or
/// crosses a non-object.
const JsonValue* find_path(const JsonValue& doc,
                           std::initializer_list<std::string_view> path);

/// The number at `path` under `doc`, or `fallback` when the path is
/// missing or ends in a non-number.
double number_at(const JsonValue& doc,
                 std::initializer_list<std::string_view> path,
                 double fallback);

/// Totals of one span name over an artifact's `spans` forest.
struct SpanTotal {
  double calls = 0;    // summed invocation counts
  double seconds = 0;  // summed time
};

/// The artifact's `spans` block summed by node name: nodes of the same
/// name under different parents add together. Empty when the artifact
/// has no spans. This is the per-stage cost that the view, `diff`, and
/// the run ledger read.
std::map<std::string, SpanTotal> span_totals(const JsonValue& doc);

/// Prints "<label>build: <compiler id> <version> <build type>
/// [sanitize=<mode>]  [<fingerprint>]" from the artifact's provenance
/// block; prints nothing when the artifact has none. The view prints it
/// unlabelled, `diff` once per side ("old ", "new "): a congestion
/// regression between artifacts of different builds is usually the build.
void render_build_line(const JsonValue& doc, std::string_view label,
                       std::ostream& os);

/// Renders every block of one artifact once, in a fixed order: header
/// (experiment, claim, tree, build, schema, wall clock), the reproduction
/// table, the per-span cost table (one row per span name: calls and time
/// from span_totals(), per-call time, bytes from the sum of the health
/// sketch "<span name>_bytes"), the convergence traces, health, memory,
/// the bottleneck links, the flight recorder, and the routing-quality
/// observatory (regret, predictor and churn summaries plus a per-epoch
/// table in which unsampled and bootstrap cells read "-", never "nan"). A
/// block the artifact lacks prints nothing. Throws CheckError only on
/// documents that are not artifact-shaped at all (no "experiment").
void render_artifact(const JsonValue& doc, std::ostream& os);

struct ArtifactDiffOptions {
  /// Relative increase on a congestion metric flagged as a regression.
  double congestion_threshold = 0.02;
  /// Relative increase on a time metric (span seconds, solve ms, wall
  /// clock) flagged as a regression. Wide by default: wall clock is
  /// noisy between runs even at identical work.
  double span_threshold = 0.50;
  /// Time metrics below this many seconds in the old artifact are ignored
  /// entirely — sub-noise-floor spans regress by large factors for free.
  double span_min_seconds = 0.05;
};

struct ArtifactDiffEntry {
  std::string metric;  // e.g. "health:engine/congestion:max", "cost:lp/mwu"
  double before = 0;
  double after = 0;
  /// (after - before) / before; +inf when before == 0 and after > 0.
  double relative = 0;
  /// Values are seconds (rendered with format_seconds; compared against
  /// the span threshold + noise floor rather than the congestion one).
  bool time_like = false;
};

struct ArtifactDiffResult {
  std::vector<ArtifactDiffEntry> regressions;
  std::vector<ArtifactDiffEntry> improvements;
  std::vector<ArtifactDiffEntry> unchanged;
  /// Non-empty when the two documents are not comparable (different
  /// experiments, not artifacts); the vectors are then empty.
  std::string error;

  bool comparable() const { return error.empty(); }
  bool regressed() const { return !regressions.empty(); }
};

/// Compares two artifacts of the same experiment. Metrics compared:
///  * the p50, p99 and max of every health sketch present in both, in the
///    sketch name's unit (format_metric's rule): durations against the span
///    threshold + noise floor, quantities (engine/ and router/congestion
///    among them) against the congestion threshold;
///  * the top-link utilization of the "attribution" block (congestion
///    threshold);
///  * every span name's total time ("cost:<span name>", from
///    span_totals(), so a stage that moves under a new parent still
///    compares) — the solver-time regression signal — plus wall_seconds
///    and the E16 modes' total_solve_ms (span threshold, with the
///    span_min_seconds noise floor);
///  * the max of each E16 per_epoch_congestion series (congestion
///    threshold).
/// Metrics present in only one artifact are skipped — schema growth is
/// not a regression.
ArtifactDiffResult diff_artifacts(const JsonValue& before,
                                  const JsonValue& after,
                                  const ArtifactDiffOptions& options = {});

/// One line per compared metric plus a verdict line.
void render_artifact_diff(const ArtifactDiffResult& result, std::ostream& os);

}  // namespace sor::telemetry
