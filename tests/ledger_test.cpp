// Run-ledger tests: artifact summarization and the config digest,
// byte-identical append determinism, corruption-tolerant reads, and the
// median/MAD trend gate (clean ledgers pass, an injected 2x latency
// regression flags).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "telemetry/buildinfo.hpp"
#include "telemetry/json.hpp"
#include "telemetry/ledger.hpp"
#include "util/check.hpp"

namespace sor {
namespace {

using telemetry::JsonValue;
using telemetry::LedgerProvenance;
using telemetry::LedgerReadResult;
using telemetry::LedgerRecord;
using telemetry::TrendOptions;
using telemetry::TrendReport;

/// A minimal schema-v6-shaped artifact with the blocks the summarizer
/// reads. `p99_scale` scales the solve-latency sketch's observations.
JsonValue make_artifact(double congestion, double wall_seconds) {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", static_cast<std::uint64_t>(6));
  doc.set("experiment", std::string("E99"));
  doc.set("claim", std::string("test artifact"));
  doc.set("quick_mode", true);
  doc.set("wall_seconds", wall_seconds);

  JsonValue table = JsonValue::object();
  JsonValue columns = JsonValue::array();
  columns.push(JsonValue("n"));
  columns.push(JsonValue("congestion"));
  table.set("columns", std::move(columns));
  doc.set("table", std::move(table));

  JsonValue health = JsonValue::object();
  JsonValue sketches = JsonValue::object();
  JsonValue solve = JsonValue::object();
  solve.set("count", static_cast<std::uint64_t>(4));
  solve.set("p50", 0.010);
  solve.set("p95", 0.020);
  solve.set("p99", 0.040);
  solve.set("max", 0.050);
  sketches.set("engine/solve_seconds", std::move(solve));
  JsonValue cong = JsonValue::object();
  cong.set("count", static_cast<std::uint64_t>(4));
  cong.set("p50", congestion / 2);
  cong.set("p95", congestion);
  cong.set("p99", congestion);
  cong.set("max", congestion);
  sketches.set("engine/congestion", std::move(cong));
  health.set("sketches", std::move(sketches));
  doc.set("health", std::move(health));

  JsonValue cache = JsonValue::object();
  cache.set("hits", static_cast<std::uint64_t>(3));
  cache.set("disk_hits", static_cast<std::uint64_t>(1));
  cache.set("misses", static_cast<std::uint64_t>(4));
  doc.set("cache", std::move(cache));

  // Solver spans: lp/simplex runs under two parents (1.5 s + 0.5 s), and
  // engine/repair is a stage, not a solver entry.
  JsonValue spans = JsonValue::array();
  for (const auto& [parent, name, seconds] :
       {std::tuple{"lp/exact", "lp/simplex", 1.5},
        std::tuple{"cli/online", "lp/simplex", 0.5},
        std::tuple{"engine/epoch", "engine/repair", 3.0}}) {
    JsonValue child = JsonValue::object();
    child.set("name", std::string(name));
    child.set("count", static_cast<std::uint64_t>(1));
    child.set("seconds", seconds);
    child.set("children", JsonValue::array());
    JsonValue children = JsonValue::array();
    children.push(std::move(child));
    JsonValue root = JsonValue::object();
    root.set("name", std::string(parent));
    root.set("count", static_cast<std::uint64_t>(1));
    root.set("seconds", seconds);
    root.set("children", std::move(children));
    spans.push(std::move(root));
  }
  doc.set("spans", std::move(spans));

  doc.set("provenance", telemetry::build_info_json("v1.2.3-test"));
  JsonValue memory = JsonValue::object();
  memory.set("current_rss_bytes", static_cast<std::uint64_t>(1'000'000));
  memory.set("peak_rss_bytes", static_cast<std::uint64_t>(2'000'000));
  doc.set("memory", std::move(memory));
  return doc;
}

LedgerProvenance fixed_provenance() {
  LedgerProvenance p;
  p.git_sha = "abc123";
  p.timestamp = "2026-01-01T00:00:00Z";
  return p;
}

TEST(Ledger, SummarizeExtractsStableMetrics) {
  const JsonValue doc = make_artifact(1.5, 12.0);
  const LedgerRecord record =
      telemetry::summarize_artifact(doc, fixed_provenance());
  EXPECT_EQ(record.bench, "E99");
  EXPECT_TRUE(record.quick_mode);
  EXPECT_EQ(record.config_digest.size(), 16u);
  EXPECT_EQ(record.build, telemetry::build_fingerprint());
  EXPECT_DOUBLE_EQ(record.metrics.at("congestion_max"), 1.5);
  EXPECT_DOUBLE_EQ(record.metrics.at("solve_p99_ms"), 40.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("cache_hit_rate"), 0.5);
  // Solver cost from the spans block: both lp/simplex nodes, under the
  // ledger's long-standing metric names; stage spans are not solver cost.
  // The total sums the solver entries (lp/exact includes its nested
  // lp/simplex, as the cost totals always have).
  EXPECT_DOUBLE_EQ(record.metrics.at("cost_simplex_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("cost_lp_exact_seconds"), 1.5);
  EXPECT_DOUBLE_EQ(record.metrics.at("cost_total_seconds"), 3.5);
  EXPECT_EQ(record.metrics.count("cost_mwu_seconds"), 0u);
  for (const auto& [name, value] : record.metrics) {
    EXPECT_EQ(name.find("repair"), std::string::npos) << name;
  }
  EXPECT_DOUBLE_EQ(record.metrics.at("peak_rss_bytes"), 2'000'000.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("wall_seconds"), 12.0);
}

TEST(Ledger, SummarizeExtractsQualityMetricsWhenSampled) {
  JsonValue doc = make_artifact(1.5, 12.0);
  JsonValue regret = JsonValue::object();
  JsonValue epochs = JsonValue::array();
  epochs.push(static_cast<std::uint64_t>(0));
  epochs.push(static_cast<std::uint64_t>(2));
  regret.set("epochs", std::move(epochs));
  regret.set("p95", 1.08);
  JsonValue predictor = JsonValue::object();
  predictor.set("scored_epochs", static_cast<std::uint64_t>(3));
  predictor.set("mape_mean", 0.12);
  JsonValue quality = JsonValue::object();
  quality.set("regret", std::move(regret));
  quality.set("predictor", std::move(predictor));
  doc.set("quality", std::move(quality));

  const LedgerRecord record =
      telemetry::summarize_artifact(doc, fixed_provenance());
  EXPECT_DOUBLE_EQ(record.metrics.at("regret_p95"), 1.08);
  EXPECT_DOUBLE_EQ(record.metrics.at("predictor_mape"), 0.12);
}

TEST(Ledger, SummarizeSkipsQualityMetricsWithoutSamples) {
  // Observatory off (no quality block) or on with zero samples: the
  // metrics must be ABSENT, not zero — a zero would poison the trend
  // baseline for later runs that do sample.
  const JsonValue plain = make_artifact(1.5, 12.0);
  EXPECT_EQ(telemetry::summarize_artifact(plain, fixed_provenance())
                .metrics.count("regret_p95"),
            0u);

  JsonValue doc = make_artifact(1.5, 12.0);
  JsonValue regret = JsonValue::object();
  regret.set("epochs", JsonValue::array());
  regret.set("p95", 0.0);
  JsonValue predictor = JsonValue::object();
  predictor.set("scored_epochs", static_cast<std::uint64_t>(0));
  predictor.set("mape_mean", 0.0);
  JsonValue quality = JsonValue::object();
  quality.set("regret", std::move(regret));
  quality.set("predictor", std::move(predictor));
  doc.set("quality", std::move(quality));
  const LedgerRecord record =
      telemetry::summarize_artifact(doc, fixed_provenance());
  EXPECT_EQ(record.metrics.count("regret_p95"), 0u);
  EXPECT_EQ(record.metrics.count("predictor_mape"), 0u);
}

// The worst sampled regret and worst scored MAPE follow the same rule as
// their p95 and mean: present only when the observatory sampled/scored.
TEST(Ledger, SummarizeCarriesWorstQualityFiguresOnlyWhenSampled) {
  JsonValue doc = make_artifact(1.5, 12.0);
  doc.set("quality", JsonValue::parse(R"({
    "regret": {"epochs": [0, 2], "p95": 1.08, "max": 1.12},
    "predictor": {"scored_epochs": 3, "mape_mean": 0.12, "mape_max": 0.4}
  })"));
  const LedgerRecord sampled =
      telemetry::summarize_artifact(doc, fixed_provenance());
  EXPECT_DOUBLE_EQ(sampled.metrics.at("regret_max"), 1.12);
  EXPECT_DOUBLE_EQ(sampled.metrics.at("predictor_mape_max"), 0.4);

  doc.set("quality", JsonValue::parse(R"({
    "regret": {"epochs": [], "p95": 0, "max": 0},
    "predictor": {"scored_epochs": 0, "mape_mean": 0, "mape_max": 0}
  })"));
  const LedgerRecord unsampled =
      telemetry::summarize_artifact(doc, fixed_provenance());
  EXPECT_EQ(unsampled.metrics.count("regret_max"), 0u);
  EXPECT_EQ(unsampled.metrics.count("predictor_mape_max"), 0u);
}

TEST(Ledger, ConfigDigestIgnoresResultsButNotConfig) {
  const JsonValue a = make_artifact(1.5, 12.0);
  const JsonValue b = make_artifact(9.9, 1.0);  // different RESULTS
  EXPECT_EQ(telemetry::artifact_config_digest(a),
            telemetry::artifact_config_digest(b));
  JsonValue c = make_artifact(1.5, 12.0);
  c.set("quick_mode", false);  // different CONFIG
  EXPECT_NE(telemetry::artifact_config_digest(a),
            telemetry::artifact_config_digest(c));
}

TEST(Ledger, RepeatedAppendsAreByteIdentical) {
  const JsonValue doc = make_artifact(1.5, 12.0);
  const LedgerRecord record =
      telemetry::summarize_artifact(doc, fixed_provenance());
  const std::string line_a = telemetry::record_to_json(record).dump(0);
  const std::string line_b = telemetry::record_to_json(record).dump(0);
  EXPECT_EQ(line_a, line_b);
  // Round trip through the parser reproduces the line exactly.
  const LedgerRecord reread =
      telemetry::record_from_json(JsonValue::parse(line_a));
  EXPECT_EQ(telemetry::record_to_json(reread).dump(0), line_a);
  EXPECT_EQ(reread.provenance.git_sha, "abc123");
  EXPECT_EQ(reread.metrics.size(), record.metrics.size());
}

TEST(Ledger, ReaderSkipsAndCountsCorruptLines) {
  const JsonValue doc = make_artifact(1.5, 12.0);
  const std::string good = telemetry::record_to_json(
      telemetry::summarize_artifact(doc, fixed_provenance())).dump(0);
  // The 100 000-deep array would overflow a recursive parser's stack; it
  // must be skipped like any other corrupt line.
  const std::string deep =
      std::string(100000, '[') + std::string(100000, ']');
  std::istringstream is(
      "this is not json\n" + good + "\n{\"bench\": 42}\n\n17\n" +
      good.substr(0, good.size() / 2) + "\n" + deep + "\n" + good + "\n");
  const LedgerReadResult result = telemetry::read_ledger(is);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.corrupt_lines, 5u);  // blank lines do not count
  EXPECT_EQ(result.records[0].bench, "E99");
}

LedgerRecord make_record(double p99_ms, double congestion = 1.0) {
  LedgerRecord r;
  r.bench = "E99";
  r.config_digest = "0123456789abcdef";
  r.build = "fedcba9876543210";
  r.metrics["solve_p99_ms"] = p99_ms;
  r.metrics["congestion_max"] = congestion;
  return r;
}

TEST(Trend, CleanHistoryPassesAndInjectedRegressionFlags) {
  // Mild noise around 40 ms: no regression under defaults.
  std::vector<LedgerRecord> records;
  for (const double v : {40.0, 41.0, 39.5, 40.5, 40.2}) {
    records.push_back(make_record(v));
  }
  const TrendReport clean = telemetry::analyze_trend(records);
  ASSERT_TRUE(clean.usable());
  EXPECT_FALSE(clean.regressed());
  EXPECT_EQ(clean.runs, 5u);

  // A 2x latency spike must flag even under the default MAD slack.
  records.push_back(make_record(80.0));
  const TrendReport spiked = telemetry::analyze_trend(records);
  ASSERT_TRUE(spiked.usable());
  EXPECT_TRUE(spiked.regressed());
  for (const telemetry::TrendMetric& m : spiked.metrics) {
    if (m.name == "solve_p99_ms") {
      EXPECT_TRUE(m.regressed);
      EXPECT_GT(m.deviation, 0.0);
    } else {
      EXPECT_FALSE(m.regressed);
    }
  }
}

TEST(Trend, TwoCleanRunsCannotSpuriouslyFlag) {
  // With the latest record included in the window, a 2-record ledger's
  // deviation from the median equals the MAD exactly, so any
  // mad_factor >= 1 keeps the gate shut regardless of the values.
  std::vector<LedgerRecord> records = {make_record(40.0), make_record(55.0)};
  const TrendReport report = telemetry::analyze_trend(records);
  ASSERT_TRUE(report.usable());
  EXPECT_FALSE(report.regressed());

  // The deterministic injection configuration used by the fixture chain:
  // window 2, no MAD slack, 25% threshold — a 2x value flags.
  records[1] = make_record(80.0);
  TrendOptions options;
  options.window = 2;
  options.mad_factor = 0;
  options.threshold = 0.25;
  const TrendReport injected = telemetry::analyze_trend(records, options);
  ASSERT_TRUE(injected.usable());
  EXPECT_TRUE(injected.regressed());
}

TEST(Trend, CacheHitRateRegressesDownwardAndSkipsSentinel) {
  std::vector<LedgerRecord> records;
  for (int i = 0; i < 4; ++i) {
    LedgerRecord r = make_record(40.0);
    r.metrics["cache_hit_rate"] = 0.9;
    records.push_back(r);
  }
  LedgerRecord drop = make_record(40.0);
  drop.metrics["cache_hit_rate"] = 0.2;  // collapsed hit rate
  records.push_back(drop);
  TrendOptions options;
  options.mad_factor = 1.0;  // history is noiseless; MAD = 0 until last
  const TrendReport report = telemetry::analyze_trend(records, options);
  ASSERT_TRUE(report.usable());
  bool saw_hit_rate = false;
  for (const telemetry::TrendMetric& m : report.metrics) {
    if (m.name != "cache_hit_rate") continue;
    saw_hit_rate = true;
    EXPECT_FALSE(m.higher_is_worse);
    EXPECT_TRUE(m.regressed);
  }
  EXPECT_TRUE(saw_hit_rate);

  // The -1 no-traffic sentinel never participates.
  for (auto& r : records) r.metrics["cache_hit_rate"] = -1;
  const TrendReport sentinel = telemetry::analyze_trend(records, options);
  for (const telemetry::TrendMetric& m : sentinel.metrics) {
    EXPECT_NE(m.name, "cache_hit_rate");
  }
}

TEST(Trend, SingleRecordIsUsableButNeverFlags) {
  const std::vector<LedgerRecord> records = {make_record(40.0)};
  const TrendReport report = telemetry::analyze_trend(records);
  EXPECT_TRUE(report.usable());
  EXPECT_FALSE(report.regressed());
}

TEST(Trend, MixedLedgersRequireTheBenchFilter) {
  std::vector<LedgerRecord> records = {make_record(40.0)};
  LedgerRecord other = make_record(40.0);
  other.bench = "E12";
  records.push_back(other);
  const TrendReport unfiltered = telemetry::analyze_trend(records);
  EXPECT_FALSE(unfiltered.usable());
  const TrendReport filtered =
      telemetry::analyze_trend(records, TrendOptions{}, "E12");
  EXPECT_TRUE(filtered.usable());
  EXPECT_EQ(filtered.runs, 1u);
  const TrendReport missing =
      telemetry::analyze_trend(records, TrendOptions{}, "E404");
  EXPECT_FALSE(missing.usable());
}

TEST(BuildInfo, FingerprintIsStableHexAndStampedIntoJson) {
  EXPECT_EQ(telemetry::build_fingerprint(),
            telemetry::build_fingerprint());
  EXPECT_EQ(telemetry::build_fingerprint().size(), 16u);
  for (const char c : telemetry::build_fingerprint()) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
  // Known FNV-1a 64 vectors pin the hash the fingerprint is built from.
  EXPECT_EQ(telemetry::fnv1a64_hex(""), "cbf29ce484222325");
  EXPECT_EQ(telemetry::fnv1a64_hex("a"), "af63dc4c8601ec8c");

  const JsonValue block = telemetry::build_info_json("v1.2.3-test");
  EXPECT_EQ(block.at("git_describe").as_string(), "v1.2.3-test");
  EXPECT_EQ(block.at("build_fingerprint").as_string(),
            telemetry::build_fingerprint());
  EXPECT_FALSE(block.at("compiler_id").as_string().empty());
  EXPECT_FALSE(block.at("sanitize").as_string().empty());
}

}  // namespace
}  // namespace sor
