#pragma once

// Consuming BENCH_<id>.json artifacts: a human-readable report of one
// artifact and a regression diff between two artifacts of the same
// experiment. This is the library half of `sor_cli report` / `sor_cli
// diff`; it lives here (not in the CLI) so the regression logic is unit
// tested without subprocesses, and kept Table-free so sor_telemetry still
// links nothing beyond Threads.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace sor::telemetry {

/// Human-readable duration: "2.41 s", "13.2 ms", "870 µs", "95 ns".
/// Chooses the unit so the mantissa lands in [1, 1000) and keeps three
/// significant digits. Shared by `sor_cli report`, `diff`, and `profile`
/// so durations read the same everywhere.
std::string format_seconds(double seconds);

/// Human-readable count/size: "312", "4.50k", "1.23M", "9.87G". Values
/// below 1000 print plainly (integers without a decimal point).
std::string format_quantity(double value);

/// Totals of one span name over an artifact's `spans` forest.
struct SpanTotal {
  double calls = 0;    // summed invocation counts
  double seconds = 0;  // summed time
};

/// The artifact's `spans` block summed by node name: nodes of the same
/// name under different parents add together. Empty when the artifact
/// has no spans. This is the per-stage cost view that `profile`, `diff`,
/// and the run ledger read.
std::map<std::string, SpanTotal> span_totals(const JsonValue& doc);

/// Renders a multi-section summary: header (experiment/claim/provenance),
/// the reproduction table, the slowest spans, the bottleneck links (when
/// the artifact carries an "attribution" block), and flight-recorder
/// highlights (when it carries an "events" block). Tolerates artifacts
/// missing optional blocks; throws CheckError only on documents that are
/// not artifact-shaped at all (no "experiment").
void render_artifact_report(const JsonValue& doc, std::ostream& os);

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
  std::string metric;  // e.g. "gauge:engine/last_congestion", "span:cli/online"
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
///  * every gauge whose name contains "congestion" present in both, and
///    the top-link utilization of the "attribution" block (congestion
///    threshold);
///  * every span (flattened root/child path) present in both, plus
///    wall_seconds and the E16 modes' total_solve_ms (span threshold,
///    with the span_min_seconds noise floor);
///  * every span name's total time ("cost:<span name>", from
///    span_totals(), so a stage that moves under a new parent still
///    compares) — the solver-time regression signal (span threshold +
///    noise floor);
///  * the max of each E16 per_epoch_congestion series (congestion
///    threshold).
/// Metrics present in only one artifact are skipped — schema growth is
/// not a regression.
ArtifactDiffResult diff_artifacts(const JsonValue& before,
                                  const JsonValue& after,
                                  const ArtifactDiffOptions& options = {});

/// One line per compared metric plus a verdict line.
void render_artifact_diff(const ArtifactDiffResult& result, std::ostream& os);

/// Renders the solver-introspection view of one artifact (`sor_cli
/// profile`): a cost table with one row per span name (calls and time
/// from span_totals(), bytes from the "<span name>_bytes" counter when
/// one exists) and the schema-v3 "convergence" block (one line per
/// trace: iterations, retained points, final objective/bound/gap,
/// truncation, per-solve counters). Tolerates
/// artifacts without either block; throws CheckError on documents that
/// are not artifact-shaped at all.
void render_artifact_profile(const JsonValue& doc, std::ostream& os);

/// Renders the routing-quality view of one artifact (`sor_cli quality`):
/// the schema-v7 "quality" block — shadow-regret summary and samples,
/// predictor accuracy (MAPE + worst pair), and path-churn series — as a
/// per-epoch table. Epochs without a shadow sample and bootstrap epochs
/// without a predictor score render "-" (never "nan"). Tolerates
/// artifacts without a quality block (prints a one-line notice); throws
/// CheckError on documents that are not artifact-shaped at all.
void render_artifact_quality(const JsonValue& doc, std::ostream& os);

}  // namespace sor::telemetry
