// Unit tests for telemetry/artifact.hpp: the regression diff between two
// BENCH_<id>.json artifacts and the one artifact view (the library behind
// `sor_cli diff` / `sor_cli report`).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "telemetry/artifact.hpp"
#include "telemetry/json.hpp"
#include "telemetry/sketch.hpp"
#include "util/check.hpp"

namespace sor {
namespace {

using telemetry::ArtifactDiffOptions;
using telemetry::ArtifactDiffResult;
using telemetry::JsonValue;

/// A health sketch, shaped as health_to_json writes it, that observed
/// `value` once: its quantiles read the value's bucket representative,
/// its sum and max the exact value.
JsonValue one_value_sketch(double value) {
  const double bucket = telemetry::Sketch::bucket_lower_bound(
      telemetry::Sketch::bucket_index(value));
  JsonValue sketch = JsonValue::object();
  sketch.set("count", 1);
  sketch.set("sum", value);
  sketch.set("min", value);
  sketch.set("max", value);
  sketch.set("p50", bucket);
  sketch.set("p95", bucket);
  sketch.set("p99", bucket);
  return sketch;
}

/// Adds the health sketch `name` holding one `value` to the artifact.
void add_sketch(JsonValue& doc, const std::string& name, double value) {
  JsonValue health = doc.has("health") ? doc.at("health") : JsonValue::object();
  JsonValue sketches =
      health.has("sketches") ? health.at("sketches") : JsonValue::object();
  sketches.set(name, one_value_sketch(value));
  health.set("sketches", std::move(sketches));
  doc.set("health", std::move(health));
}

/// Minimal but schema-shaped artifact with one congestion sketch, one
/// span, and an attribution header.
JsonValue make_artifact(double congestion, double span_seconds,
                        double max_utilization) {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", 2);
  doc.set("experiment", "T1");
  doc.set("title", "T1: test artifact");
  doc.set("claim", "diffable");
  doc.set("quick_mode", true);
  doc.set("wall_seconds", span_seconds * 2);

  add_sketch(doc, "engine/congestion", congestion);

  JsonValue span = JsonValue::object();
  span.set("name", "test/solve");
  span.set("count", 1);
  span.set("seconds", span_seconds);
  span.set("children", JsonValue::array());
  JsonValue spans = JsonValue::array();
  spans.push(std::move(span));
  doc.set("spans", std::move(spans));

  JsonValue attribution = JsonValue::object();
  attribution.set("top_k", 0);
  attribution.set("loaded_links", 0);
  attribution.set("max_utilization", max_utilization);
  attribution.set("links", JsonValue::array());
  doc.set("attribution", std::move(attribution));

  JsonValue table = JsonValue::object();
  JsonValue columns = JsonValue::array();
  columns.push("metric");
  columns.push("value");
  JsonValue rows = JsonValue::array();
  JsonValue row = JsonValue::array();
  row.push("congestion");
  row.push("1.0");
  rows.push(std::move(row));
  table.set("columns", std::move(columns));
  table.set("rows", std::move(rows));
  doc.set("table", std::move(table));
  return doc;
}

TEST(ArtifactDiff, SelfDiffReportsNoRegressions) {
  const JsonValue doc = make_artifact(1.5, 2.0, 1.2);
  const ArtifactDiffResult result = telemetry::diff_artifacts(doc, doc);
  ASSERT_TRUE(result.comparable());
  EXPECT_FALSE(result.regressed());
  EXPECT_TRUE(result.improvements.empty());
  EXPECT_FALSE(result.unchanged.empty());
}

TEST(ArtifactDiff, FlagsCongestionRegressionAboveThreshold) {
  const JsonValue before = make_artifact(1.0, 2.0, 1.0);
  const JsonValue after = make_artifact(1.10, 2.0, 1.0);  // +10%
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.comparable());
  ASSERT_TRUE(result.regressed());
  // The exact max moves by the full 10%; the quantiles move from bucket
  // to bucket (1 -> 1.0625), still past the 2% threshold.
  EXPECT_EQ(result.regressions[0].metric, "health:engine/congestion:max");
  EXPECT_NEAR(result.regressions[0].relative, 0.10, 1e-9);
  EXPECT_FALSE(result.regressions[0].time_like);
  EXPECT_EQ(result.regressions.size(), 3u);
}

TEST(ArtifactDiff, CongestionThresholdIsConfigurable) {
  const JsonValue before = make_artifact(1.0, 2.0, 1.0);
  const JsonValue after = make_artifact(1.10, 2.0, 1.0);
  ArtifactDiffOptions options;
  options.congestion_threshold = 0.25;  // 10% bump now within slack
  const ArtifactDiffResult result =
      telemetry::diff_artifacts(before, after, options);
  ASSERT_TRUE(result.comparable());
  EXPECT_FALSE(result.regressed());
}

TEST(ArtifactDiff, FlagsAttributionUtilizationRegression) {
  const JsonValue before = make_artifact(1.0, 2.0, 1.0);
  const JsonValue after = make_artifact(1.0, 2.0, 1.2);
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.regressed());
  EXPECT_EQ(result.regressions[0].metric, "attribution:max_utilization");
}

TEST(ArtifactDiff, FlagsSpanRegressionAboveItsThreshold) {
  const JsonValue before = make_artifact(1.0, 1.0, 1.0);
  const JsonValue after = make_artifact(1.0, 2.0, 1.0);  // 2× slower span
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.regressed());
  bool found = false;
  for (const auto& entry : result.regressions) {
    found = found || entry.metric == "cost:test/solve";
  }
  EXPECT_TRUE(found);
}

TEST(ArtifactDiff, SubNoiseFloorSpansAreIgnored) {
  // 10× regression, but both sides are far under span_min_seconds.
  const JsonValue before = make_artifact(1.0, 0.001, 1.0);
  const JsonValue after = make_artifact(1.0, 0.010, 1.0);
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.comparable());
  EXPECT_FALSE(result.regressed());
  for (const auto& entry : result.unchanged) {
    EXPECT_NE(entry.metric, "cost:test/solve");
  }
}

TEST(ArtifactDiff, ImprovementsAreClassifiedNotFlagged) {
  const JsonValue before = make_artifact(2.0, 2.0, 2.0);
  const JsonValue after = make_artifact(1.0, 2.0, 1.0);
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.comparable());
  EXPECT_FALSE(result.regressed());
  EXPECT_GE(result.improvements.size(), 2u);
}

TEST(ArtifactDiff, ZeroToPositiveIsAnInfiniteRegression) {
  const JsonValue before = make_artifact(0.0, 2.0, 1.0);
  const JsonValue after = make_artifact(0.5, 2.0, 1.0);
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.regressed());
  EXPECT_TRUE(std::isinf(result.regressions[0].relative));
}

TEST(ArtifactDiff, DifferentExperimentsAreNotComparable) {
  JsonValue before = make_artifact(1.0, 2.0, 1.0);
  JsonValue after = make_artifact(1.0, 2.0, 1.0);
  after.set("experiment", "T2");
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  EXPECT_FALSE(result.comparable());
  EXPECT_TRUE(result.regressions.empty());
  EXPECT_FALSE(result.error.empty());
}

TEST(ArtifactDiff, NonArtifactDocumentsAreNotComparable) {
  const JsonValue not_artifact = JsonValue::object();
  const JsonValue doc = make_artifact(1.0, 2.0, 1.0);
  EXPECT_FALSE(telemetry::diff_artifacts(not_artifact, doc).comparable());
  EXPECT_FALSE(telemetry::diff_artifacts(doc, not_artifact).comparable());
}

TEST(ArtifactDiff, MetricsPresentOnOneSideOnlyAreSkipped) {
  const JsonValue before = make_artifact(1.0, 2.0, 1.0);
  JsonValue after = make_artifact(1.0, 2.0, 1.0);
  add_sketch(after, "new/congestion_metric", 99.0);
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.comparable());
  EXPECT_FALSE(result.regressed());  // schema growth is not a regression
}

TEST(ArtifactRender, DiffOutputNamesEveryBucket) {
  const JsonValue before = make_artifact(1.0, 2.0, 1.0);
  const JsonValue after = make_artifact(1.2, 2.0, 0.5);
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  std::ostringstream os;
  telemetry::render_artifact_diff(result, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("improved"), std::string::npos);
  EXPECT_NE(text.find("regression(s)"), std::string::npos);
}

TEST(ArtifactRender, ReportRendersHeaderTableAndSpans) {
  const JsonValue doc = make_artifact(1.5, 2.0, 1.2);
  std::ostringstream os;
  telemetry::render_artifact(doc, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("experiment: T1"), std::string::npos);
  EXPECT_NE(text.find("claim: diffable"), std::string::npos);
  EXPECT_NE(text.find("schema: v2"), std::string::npos);
  EXPECT_NE(text.find("test/solve"), std::string::npos);  // per-span cost
  EXPECT_NE(text.find("congestion"), std::string::npos);  // table cell
}

TEST(ArtifactFormat, SecondsPicksTheUnitForThreeSignificantDigits) {
  EXPECT_EQ(telemetry::format_seconds(2.41), "2.41 s");
  EXPECT_EQ(telemetry::format_seconds(0.0132), "13.2 ms");
  EXPECT_EQ(telemetry::format_seconds(870e-6), "870 µs");
  EXPECT_EQ(telemetry::format_seconds(95e-9), "95 ns");
  EXPECT_EQ(telemetry::format_seconds(0), "0 s");
  EXPECT_EQ(telemetry::format_seconds(-0.0025), "-2.5 ms");
}

TEST(ArtifactFormat, QuantityUsesMetricSuffixes) {
  EXPECT_EQ(telemetry::format_quantity(312), "312");
  EXPECT_EQ(telemetry::format_quantity(4500), "4.5k");
  EXPECT_EQ(telemetry::format_quantity(1.23e6), "1.23M");
  EXPECT_EQ(telemetry::format_quantity(9.87e9), "9.87G");
  EXPECT_EQ(telemetry::format_quantity(0), "0");
}

/// Adds a root span `parent` holding one `name` child that ran `calls`
/// times for `seconds` in total.
void add_span(JsonValue& doc, const std::string& parent,
              const std::string& name, double seconds, double calls) {
  JsonValue child = JsonValue::object();
  child.set("name", name);
  child.set("count", calls);
  child.set("seconds", seconds);
  child.set("children", JsonValue::array());
  JsonValue children = JsonValue::array();
  children.push(std::move(child));
  JsonValue root = JsonValue::object();
  root.set("name", parent);
  root.set("count", 1);
  root.set("seconds", seconds);
  root.set("children", std::move(children));
  JsonValue spans = doc.at("spans");
  spans.push(std::move(root));
  doc.set("spans", std::move(spans));
}

TEST(ArtifactDiff, FlagsSubsystemCostRegressionAsTimeLike) {
  // The solver span runs under two parents; its cost sums both nodes.
  JsonValue before = make_artifact(1.0, 2.0, 1.0);
  JsonValue after = make_artifact(1.0, 2.0, 1.0);
  add_span(before, "engine/solve", "lp/mwu", 0.75, 6);
  add_span(before, "cli/online", "lp/mwu", 0.25, 4);  // 1 s in total
  add_span(after, "engine/solve", "lp/mwu", 2.0, 6);
  add_span(after, "cli/online", "lp/mwu", 0.5, 4);  // 2.5 s: past the slack
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.comparable());
  ASSERT_TRUE(result.regressed());
  bool found = false;
  for (const auto& entry : result.regressions) {
    if (entry.metric == "cost:lp/mwu") {
      found = true;
      EXPECT_TRUE(entry.time_like);
      EXPECT_NEAR(entry.before, 1.0, 1e-9);
      EXPECT_NEAR(entry.after, 2.5, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ArtifactDiff, SubNoiseFloorCostIsIgnored) {
  JsonValue before = make_artifact(1.0, 2.0, 1.0);
  JsonValue after = make_artifact(1.0, 2.0, 1.0);
  add_span(before, "engine/solve", "lp/mwu", 1.0e-3, 10);  // 1 ms
  add_span(after, "engine/solve", "lp/mwu", 10.0e-3, 10);  // 10×, sub-floor
  const ArtifactDiffResult result = telemetry::diff_artifacts(before, after);
  ASSERT_TRUE(result.comparable());
  EXPECT_FALSE(result.regressed());
}

/// Artifact with a schema-v3 convergence block of one trace.
JsonValue make_profile_artifact() {
  JsonValue doc = make_artifact(1.0, 2.0, 1.0);
  doc.set("schema_version", 3);
  add_span(doc, "lp/exact", "lp/simplex", 3.2, 4);
  add_sketch(doc, "lp/simplex_bytes", 38200);

  JsonValue point = JsonValue::object();
  point.set("iteration", 5);
  point.set("t", 0.25);
  point.set("objective", 1.5);
  point.set("bound", 1.2);
  point.set("gap", 0.25);
  JsonValue points = JsonValue::array();
  points.push(std::move(point));
  JsonValue trace_counters = JsonValue::object();
  trace_counters.set("degenerate_pivots", 2);
  JsonValue trace = JsonValue::object();
  trace.set("solver", "simplex");
  trace.set("label", "phase2");
  trace.set("iterations", 40);
  trace.set("max_points", 1024);
  trace.set("truncated", true);
  trace.set("counters", std::move(trace_counters));
  trace.set("points", std::move(points));
  JsonValue traces = JsonValue::array();
  traces.push(std::move(trace));
  JsonValue convergence = JsonValue::object();
  convergence.set("capacity", 64);
  convergence.set("dropped", 0);
  convergence.set("traces", std::move(traces));
  doc.set("convergence", std::move(convergence));
  return doc;
}

TEST(ArtifactRender, ProfileRendersCostAndConvergence) {
  const JsonValue doc = make_profile_artifact();
  std::ostringstream os;
  telemetry::render_artifact(doc, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("experiment: T1"), std::string::npos);
  EXPECT_NE(text.find("per-span cost"), std::string::npos);
  // One row per span name: calls and time from the spans block, bytes
  // from the sum of the lp/simplex_bytes health sketch.
  const std::size_t row = text.find("\n  lp/simplex ");
  ASSERT_NE(row, std::string::npos) << text;
  const std::string line =
      text.substr(row + 1, text.find('\n', row + 1) - row - 1);
  EXPECT_NE(line.find(" 4 "), std::string::npos) << line;
  EXPECT_NE(line.find("3.2 s"), std::string::npos) << line;
  EXPECT_NE(line.find("38.2k"), std::string::npos) << line;
  EXPECT_NE(text.find("convergence traces: 1 kept"), std::string::npos);
  EXPECT_NE(text.find("simplex/phase2"), std::string::npos);
  EXPECT_NE(text.find("[TRUNCATED]"), std::string::npos);
  EXPECT_NE(text.find("degenerate_pivots=2"), std::string::npos);
}

TEST(ArtifactRender, ProfileToleratesArtifactsWithoutV3Blocks) {
  const JsonValue doc = make_artifact(1.0, 2.0, 1.0);  // v2-shaped
  std::ostringstream os;
  telemetry::render_artifact(doc, os);
  // A block the artifact lacks prints nothing; the rest still renders.
  EXPECT_EQ(os.str().find("convergence"), std::string::npos);
  EXPECT_NE(os.str().find("per-span cost"), std::string::npos);
}

TEST(ArtifactRender, ProfileRejectsNonArtifacts) {
  // Cost and convergence blocks without an "experiment" key are not an
  // artifact: the view throws before printing any of them.
  const JsonValue doc = make_profile_artifact();
  JsonValue stripped = JsonValue::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "experiment") stripped.set(key, value);
  }
  ASSERT_TRUE(stripped.has("convergence"));
  std::ostringstream os;
  EXPECT_THROW(telemetry::render_artifact(stripped, os), CheckError);
  EXPECT_TRUE(os.str().empty());
}

TEST(ArtifactRender, ReportRejectsNonArtifacts) {
  std::ostringstream os;
  EXPECT_THROW(telemetry::render_artifact(JsonValue::object(), os),
               CheckError);
  EXPECT_THROW(telemetry::render_artifact(JsonValue::parse("[1]"), os),
               CheckError);
  EXPECT_TRUE(os.str().empty());
}

JsonValue make_quality_artifact() {
  return JsonValue::parse(R"({
    "experiment": "E16",
    "title": "E16: control loop",
    "quality": {
      "shadow_every": 2, "shadow_epsilon": 0.05,
      "epochs": 3, "shadow_solves": 2,
      "regret": {"epochs": [0, 2], "achieved": [1.5, 1.65],
                 "shadow_opt": [1.5, 1.5], "lower_bound": [1.43, 1.43],
                 "ratio": [1.0, 1.1], "truncated": 0,
                 "p50": 1.0, "p95": 1.1, "max": 1.1},
      "predictor": {"mape": [-1, 0.25, 0.125],
                    "worst_pair_error": [0, 0.5, 0.25],
                    "worst_pair": [null, [0, 4], [2, 3]],
                    "scored_epochs": 2, "mape_mean": 0.1875,
                    "mape_max": 0.25},
      "churn": {"mask_hamming": [0, 2, 0], "weight_l1": [0, 0.8, 0.1],
                "top_path_flips": [0, 1, 0], "total_top_path_flips": 1}
    }
  })");
}

TEST(ArtifactRender, QualityRendersSummaryAndPerEpochTable) {
  std::ostringstream os;
  telemetry::render_artifact(make_quality_artifact(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("experiment: E16"), std::string::npos);
  EXPECT_NE(text.find("shadow every 2"), std::string::npos);
  EXPECT_NE(text.find("regret: 2 samples"), std::string::npos);
  EXPECT_NE(text.find("p95 1.1000"), std::string::npos);
  EXPECT_NE(text.find("predictor: 2/3 epochs scored"), std::string::npos);
  EXPECT_NE(text.find("total top-path flips 1"), std::string::npos);
  EXPECT_NE(text.find("0->4"), std::string::npos);  // worst pair, epoch 1
  // Unsampled and bootstrap cells render "-", never "nan".
  EXPECT_NE(text.find("-"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(ArtifactRender, QualityToleratesMissingBlockAndEmptySeries) {
  // No quality block: no quality section, and nothing but the header.
  std::ostringstream os;
  telemetry::render_artifact(JsonValue::parse(R"({"experiment": "E1"})"), os);
  EXPECT_EQ(os.str(), "experiment: E1\n\n");

  // Zero-epoch observatory block: summary lines only, no nan anywhere.
  std::ostringstream empty;
  telemetry::render_artifact(JsonValue::parse(R"({
    "experiment": "E16",
    "quality": {"shadow_every": 2, "shadow_epsilon": 0.05,
                "epochs": 0, "shadow_solves": 0,
                "regret": {"epochs": [], "achieved": [], "shadow_opt": [],
                           "lower_bound": [], "ratio": [], "truncated": 0,
                           "p50": 0, "p95": 0, "max": 0},
                "predictor": {"mape": [], "worst_pair_error": [],
                              "worst_pair": [], "scored_epochs": 0,
                              "mape_mean": 0, "mape_max": 0},
                "churn": {"mask_hamming": [], "weight_l1": [],
                          "top_path_flips": [], "total_top_path_flips": 0}}
  })"),
                            empty);
  EXPECT_NE(empty.str().find("no shadow samples"), std::string::npos);
  EXPECT_NE(empty.str().find("no scored epochs"), std::string::npos);
  EXPECT_EQ(empty.str().find("nan"), std::string::npos);
}

TEST(ArtifactRender, QualityRejectsNonArtifacts) {
  // A bare observatory block, or one wrapped without an "experiment" key,
  // is not an artifact: the view throws and prints no quality section.
  const JsonValue doc = make_quality_artifact();
  JsonValue wrapped = JsonValue::object();
  wrapped.set("quality", doc.at("quality"));
  std::ostringstream os;
  EXPECT_THROW(telemetry::render_artifact(doc.at("quality"), os), CheckError);
  EXPECT_THROW(telemetry::render_artifact(wrapped, os), CheckError);
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
}  // namespace sor
