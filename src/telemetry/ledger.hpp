#pragma once

// Cross-run performance observatory: an append-only JSONL run ledger
// plus robust trend analysis over it.
//
// Each ledger line is one LedgerRecord — the stable summary of one
// BENCH_<id>.json artifact, keyed by (bench id, config digest, build
// fingerprint). summarize_artifact extracts only metrics that survive
// schema growth: congestion watermark, solve-latency quantiles from the
// health sketches, cache hit rate, solver span cost totals, peak RSS,
// and wall clock. Timestamps and git SHAs are supplied by the CALLER
// (never sampled here), and metrics are stored name-sorted, so appending
// the same artifact with the same provenance produces byte-identical
// lines — records are replay-deterministic.
//
// The store is corruption-tolerant by construction: readers skip (and
// count) lines that do not parse or are not record-shaped, so a torn
// append or a garbage prefix never blocks the trend gate.
//
// Trend analysis computes, per metric, a robust baseline over a trailing
// window (median + MAD, latest record INCLUDED so a 2-run ledger with
// default slack can never spuriously flag), and flags the latest value
// when its worse-direction deviation exceeds
//   threshold * |baseline| + mad_factor * MAD.
// Every metric is higher-is-worse except cache_hit_rate (lower is
// worse; its -1 no-traffic sentinel is skipped entirely). This is the
// library half of `sor_cli ledger append|ls`, `sor_cli trend` and, through
// evaluate_artifact_slo, `sor_cli slo`.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/slo.hpp"

namespace sor::telemetry {

/// Caller-supplied identity of one run. Nothing here is sampled by the
/// ledger; fixed inputs give byte-identical records.
struct LedgerProvenance {
  std::string git_sha = "unknown";
  std::string timestamp = "unknown";
  std::string note;
};

/// One ledger line: the (bench, config digest, build) key, provenance,
/// and the name-sorted metric summary.
struct LedgerRecord {
  std::string bench;          // experiment id, e.g. "E16"
  std::string config_digest;  // fnv1a64_hex over experiment/quick/claim/columns
  std::string build;          // build fingerprint from the provenance block
  bool quick_mode = false;
  LedgerProvenance provenance;
  std::map<std::string, double> metrics;
};

/// Stable digest of what the bench computed: experiment id, quick flag,
/// claim, and the table's column set. Deliberately excludes row values
/// (they are results, not configuration) and wall clock.
std::string artifact_config_digest(const JsonValue& artifact);

/// Extracts the summary record from a schema-v5+ artifact. Metrics:
///   congestion_max, solve_p50_ms/p95/p99 (from the
///   engine/solve_seconds sketch), cache_hit_rate (-1 = no traffic),
///   the solver span totals cost_mwu_seconds (lp/mwu),
///   cost_lp_exact_seconds (lp/exact), cost_simplex_seconds
///   (lp/simplex), cost_mcf_seconds (mcf/solve), cost_lp_shadow_seconds
///   (lp/shadow) plus their sum cost_total_seconds,
///   peak_rss_bytes (schema v6 "memory" block), wall_seconds,
///   regret_p95 + regret_max (schema v7 "quality" block; omitted when
///   the observatory sampled no epoch), predictor_mape (the mean) +
///   predictor_mape_max (omitted when it scored no epoch).
/// Metrics whose source block is absent are simply omitted. Throws
/// CheckError when `artifact` is not artifact-shaped (no "experiment").
LedgerRecord summarize_artifact(const JsonValue& artifact,
                                const LedgerProvenance& provenance);

/// Offline evaluation of `config` against a BENCH_*.json artifact
/// (`sor_cli slo`): the breaches recorded in the artifact's health block
/// at run time, plus slo_breaches() over summarize_artifact()'s
/// congestion_max, solve_p99_ms, cache_hit_rate, regret_max and
/// predictor_mape_max, each absent when the summary omits it. Throws
/// CheckError when `artifact` has no "experiment".
struct ArtifactSloReport {
  std::vector<SloBreach> recorded;   // from the artifact's breach list
  std::vector<SloBreach> evaluated;  // re-checked against `config`
  int status = 0;                    // nonzero when either list is non-empty
};
ArtifactSloReport evaluate_artifact_slo(const JsonValue& artifact,
                                        const SloConfig& config);

JsonValue record_to_json(const LedgerRecord& record);

/// Inverse of record_to_json. Tolerant of extra keys; throws CheckError
/// when required keys are missing or mistyped (readers treat that as a
/// corrupt line).
LedgerRecord record_from_json(const JsonValue& doc);

struct LedgerReadResult {
  std::vector<LedgerRecord> records;  // in file (append) order
  std::size_t corrupt_lines = 0;
};

/// Reads a JSONL ledger, skipping blank lines and counting lines that do
/// not parse as records.
LedgerReadResult read_ledger(std::istream& is);

/// read_ledger over a file. A missing file reads as an empty ledger
/// (first append bootstraps the store).
LedgerReadResult read_ledger_file(const std::string& path);

/// Appends one compact JSONL line. Returns false on I/O failure.
bool append_record(const std::string& path, const LedgerRecord& record);

struct TrendOptions {
  /// Trailing records per metric forming the baseline window, INCLUDING
  /// the latest one.
  std::size_t window = 8;
  /// Relative deviation gate: fraction of |baseline|.
  double threshold = 0.25;
  /// Noise slack in MADs added to the gate. At >= 1 a two-record window
  /// can never flag (the latest's deviation from the median IS the MAD),
  /// so fresh ledgers pass until history accumulates.
  double mad_factor = 3.0;
};

struct TrendMetric {
  std::string name;
  std::vector<double> history;  // window values, oldest first; latest last
  double latest = 0;
  double baseline = 0;  // median over history
  double mad = 0;       // median absolute deviation over history
  /// Worse-direction deviation of latest from baseline (sign-adjusted so
  /// positive always means "got worse").
  double deviation = 0;
  bool higher_is_worse = true;
  bool regressed = false;
};

struct TrendReport {
  std::string bench;
  std::size_t runs = 0;           // records considered (after filtering)
  std::size_t corrupt_lines = 0;  // carried through for rendering
  std::vector<TrendMetric> metrics;
  /// Non-empty when the ledger is unusable (no records for the bench);
  /// metrics is then empty.
  std::string error;

  bool usable() const { return error.empty(); }
  bool regressed() const;
};

/// Analyzes the trailing window of `records` (file order = append
/// order). When `bench` is non-empty only that experiment's records are
/// considered; otherwise all records must share one bench id (mixed
/// ledgers require the filter). A single-record ledger is usable but has
/// no baseline to regress against, so nothing flags.
TrendReport analyze_trend(const std::vector<LedgerRecord>& records,
                          const TrendOptions& options = {},
                          const std::string& bench = "");

/// One line per record: bench, timestamp, git SHA, build, digest, and
/// headline metrics. `sor_cli ledger ls`.
void render_ledger(const LedgerReadResult& ledger, std::ostream& os);

/// Per-metric trajectory table (history -> latest vs baseline) plus a
/// verdict line. `sor_cli trend`.
void render_trend(const TrendReport& report, std::ostream& os);

}  // namespace sor::telemetry
