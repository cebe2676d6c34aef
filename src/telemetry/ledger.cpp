#include "telemetry/ledger.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

#include "telemetry/artifact.hpp"
#include "telemetry/buildinfo.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace sor::telemetry {

namespace {

constexpr const char* kCacheHitRate = "cache_hit_rate";

/// Solver entry span -> ledger metric.
constexpr std::pair<const char*, const char*> kSolverCostMetrics[] = {
    {"lp/mwu", "cost_mwu_seconds"},
    {"lp/exact", "cost_lp_exact_seconds"},
    {"lp/simplex", "cost_simplex_seconds"},
    {"mcf/solve", "cost_mcf_seconds"},
    {"lp/shadow", "cost_lp_shadow_seconds"},
};

double median(std::vector<double> values) {
  SOR_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

}  // namespace

std::string artifact_config_digest(const JsonValue& artifact) {
  SOR_CHECK_MSG(artifact.is_object() && artifact.has("experiment"),
                "document is not a BENCH artifact (no \"experiment\" key)");
  std::string text = artifact.at("experiment").as_string();
  text += '\n';
  const bool quick = artifact.has("quick_mode") &&
                     artifact.at("quick_mode").is_bool() &&
                     artifact.at("quick_mode").as_bool();
  text += quick ? '1' : '0';
  text += '\n';
  if (artifact.has("claim") && artifact.at("claim").is_string()) {
    text += artifact.at("claim").as_string();
  }
  text += '\n';
  if (const JsonValue* columns = find_path(artifact, {"table", "columns"})) {
    for (std::size_t i = 0; i < columns->size(); ++i) {
      if (columns->at(i).is_string()) text += columns->at(i).as_string();
      text += '\n';
    }
  }
  return fnv1a64_hex(text);
}

LedgerRecord summarize_artifact(const JsonValue& artifact,
                                const LedgerProvenance& provenance) {
  SOR_CHECK_MSG(artifact.is_object() && artifact.has("experiment"),
                "document is not a BENCH artifact (no \"experiment\" key)");
  LedgerRecord record;
  record.bench = artifact.at("experiment").as_string();
  record.config_digest = artifact_config_digest(artifact);
  record.quick_mode = artifact.has("quick_mode") &&
                      artifact.at("quick_mode").is_bool() &&
                      artifact.at("quick_mode").as_bool();
  record.provenance = provenance;

  // Build identity: the v6 provenance block's fingerprint. Older
  // artifacts fall back to git_describe — weaker, but still a key.
  const JsonValue* build =
      find_path(artifact, {"provenance", "build_fingerprint"});
  if (build == nullptr || !build->is_string()) {
    build = find_path(artifact, {"git_describe"});
  }
  record.build =
      build != nullptr && build->is_string() ? build->as_string() : "unknown";

  // Congestion watermark: the health sketch's exact max.
  if (const JsonValue* sketch =
          find_path(artifact, {"health", "sketches", "engine/congestion"})) {
    record.metrics["congestion_max"] = number_at(*sketch, {"max"}, 0);
  }
  // Solve-latency quantiles, sketch seconds -> milliseconds.
  if (const JsonValue* sketch = find_path(
          artifact, {"health", "sketches", "engine/solve_seconds"})) {
    record.metrics["solve_p50_ms"] = number_at(*sketch, {"p50"}, 0) * 1e3;
    record.metrics["solve_p95_ms"] = number_at(*sketch, {"p95"}, 0) * 1e3;
    record.metrics["solve_p99_ms"] = number_at(*sketch, {"p99"}, 0) * 1e3;
  }
  // Cache hit rate over the artifact's own cache block (survives
  // SOR_TELEMETRY=off); -1 marks "no traffic", skipped by the trend.
  if (const JsonValue* cache = find_path(artifact, {"cache"})) {
    record.metrics[kCacheHitRate] =
        hit_rate(number_at(*cache, {"hits"}, 0) +
                     number_at(*cache, {"disk_hits"}, 0),
                 number_at(*cache, {"misses"}, 0));
  }
  // Routing-quality figures (schema v7 quality block): the sampled
  // regret's p95 and max, and the predictor MAPE's mean and max. All
  // higher-is-worse, so they enter the trend gate's default set like the
  // latency quantiles do. Skipped (not zeroed) when the observatory was
  // off or produced no samples — a 0 would read as "perfect routing" and
  // poison the trend baseline.
  if (const JsonValue* regret = find_path(artifact, {"quality", "regret"})) {
    const JsonValue* sampled = find_path(*regret, {"epochs"});
    if (sampled != nullptr && sampled->size() > 0) {
      record.metrics["regret_p95"] = number_at(*regret, {"p95"}, 0);
      record.metrics["regret_max"] = number_at(*regret, {"max"}, 0);
    }
  }
  if (const JsonValue* predictor =
          find_path(artifact, {"quality", "predictor"})) {
    if (number_at(*predictor, {"scored_epochs"}, 0) > 0) {
      record.metrics["predictor_mape"] =
          number_at(*predictor, {"mape_mean"}, 0);
      record.metrics["predictor_mape_max"] =
          number_at(*predictor, {"mape_max"}, 0);
    }
  }
  // Solver cost totals from the solver entry spans, under the ledger's
  // cost_* metric names (the trend gate compares them across records).
  const auto spans = span_totals(artifact);
  double cost_total = 0;
  bool any_cost = false;
  for (const auto& [span, metric] : kSolverCostMetrics) {
    const auto it = spans.find(span);
    if (it == spans.end()) continue;
    record.metrics[metric] = it->second.seconds;
    cost_total += it->second.seconds;
    any_cost = true;
  }
  if (any_cost) record.metrics["cost_total_seconds"] = cost_total;
  // Peak memory from the v6 memory block.
  if (const JsonValue* memory = find_path(artifact, {"memory"})) {
    record.metrics["peak_rss_bytes"] =
        number_at(*memory, {"peak_rss_bytes"}, 0);
  }
  if (const JsonValue* wall = find_path(artifact, {"wall_seconds"});
      wall != nullptr && wall->is_number()) {
    record.metrics["wall_seconds"] = wall->as_number();
  }
  return record;
}

ArtifactSloReport evaluate_artifact_slo(const JsonValue& artifact,
                                        const SloConfig& config) {
  ArtifactSloReport report;
  if (const JsonValue* recorded =
          find_path(artifact, {"health", "breaches"})) {
    for (std::size_t i = 0; i < recorded->size(); ++i) {
      const JsonValue& row = recorded->at(i);
      report.recorded.push_back(
          {row.at("slo").as_string(),
           static_cast<std::uint64_t>(row.at("epoch").as_number()),
           row.at("value").as_number(), row.at("budget").as_number()});
    }
  }
  const LedgerRecord summary = summarize_artifact(artifact, {});
  const auto figure = [&](const char* metric) {
    const auto it = summary.metrics.find(metric);
    return it == summary.metrics.end() ? -1.0 : it->second;
  };
  report.evaluated = slo_breaches(
      config, 0, figure("congestion_max"), figure("solve_p99_ms"),
      figure("cache_hit_rate"), figure("regret_max"),
      figure("predictor_mape_max"));
  report.status =
      report.recorded.empty() && report.evaluated.empty() ? 0 : 1;
  return report;
}

JsonValue record_to_json(const LedgerRecord& record) {
  JsonValue doc = JsonValue::object();
  doc.set("bench", record.bench);
  doc.set("config_digest", record.config_digest);
  doc.set("build", record.build);
  doc.set("quick_mode", record.quick_mode);
  doc.set("git_sha", record.provenance.git_sha);
  doc.set("timestamp", record.provenance.timestamp);
  doc.set("note", record.provenance.note);
  JsonValue metrics = JsonValue::object();
  // std::map iterates name-sorted — the determinism half of the
  // byte-identical-append contract (insertion order IS dump order).
  for (const auto& [name, value] : record.metrics) {
    metrics.set(name, value);
  }
  doc.set("metrics", std::move(metrics));
  return doc;
}

LedgerRecord record_from_json(const JsonValue& doc) {
  SOR_CHECK_MSG(doc.is_object(), "ledger line is not an object");
  LedgerRecord record;
  for (const char* key : {"bench", "config_digest", "build"}) {
    SOR_CHECK_MSG(doc.has(key) && doc.at(key).is_string(),
                  "ledger line is missing string key");
  }
  record.bench = doc.at("bench").as_string();
  SOR_CHECK_MSG(!record.bench.empty(), "ledger line has an empty bench id");
  record.config_digest = doc.at("config_digest").as_string();
  record.build = doc.at("build").as_string();
  if (doc.has("quick_mode") && doc.at("quick_mode").is_bool()) {
    record.quick_mode = doc.at("quick_mode").as_bool();
  }
  const std::pair<const char*, std::string*> provenance_fields[] = {
      {"git_sha", &record.provenance.git_sha},
      {"timestamp", &record.provenance.timestamp},
      {"note", &record.provenance.note}};
  for (const auto& [field, out] : provenance_fields) {
    if (doc.has(field) && doc.at(field).is_string()) {
      *out = doc.at(field).as_string();
    }
  }
  SOR_CHECK_MSG(doc.has("metrics") && doc.at("metrics").is_object(),
                "ledger line has no metrics object");
  for (const auto& [name, value] : doc.at("metrics").members()) {
    SOR_CHECK_MSG(value.is_number(), "ledger metric is not a number");
    record.metrics[name] = value.as_number();
  }
  return record;
}

LedgerReadResult read_ledger(std::istream& is) {
  LedgerReadResult result;
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;  // blank line, not corruption
    try {
      result.records.push_back(record_from_json(JsonValue::parse(line)));
    } catch (const std::exception&) {
      // Torn append, garbage prefix, or a non-record JSON value: count
      // it and keep going — the store stays usable.
      ++result.corrupt_lines;
    }
  }
  return result;
}

LedgerReadResult read_ledger_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return {};  // missing ledger = empty ledger (first append)
  return read_ledger(is);
}

bool append_record(const std::string& path, const LedgerRecord& record) {
  std::ofstream os(path, std::ios::app);
  if (!os) return false;
  os << record_to_json(record).dump(0) << "\n";
  os.flush();
  return static_cast<bool>(os);
}

bool TrendReport::regressed() const {
  for (const TrendMetric& metric : metrics) {
    if (metric.regressed) return true;
  }
  return false;
}

TrendReport analyze_trend(const std::vector<LedgerRecord>& records,
                          const TrendOptions& options,
                          const std::string& bench) {
  TrendReport report;
  std::vector<const LedgerRecord*> considered;
  for (const LedgerRecord& record : records) {
    if (!bench.empty() && record.bench != bench) continue;
    if (report.bench.empty()) {
      report.bench = record.bench;
    } else if (record.bench != report.bench) {
      report.error = "ledger mixes experiments (\"" + report.bench +
                     "\" and \"" + record.bench +
                     "\"); pass --bench to select one";
      return report;
    }
    considered.push_back(&record);
  }
  if (considered.empty()) {
    report.error = bench.empty()
                       ? std::string("ledger has no records")
                       : "ledger has no records for bench \"" + bench + "\"";
    return report;
  }
  report.runs = considered.size();

  const std::size_t window = std::max<std::size_t>(options.window, 1);
  const LedgerRecord& latest = *considered.back();
  for (const auto& [name, latest_value] : latest.metrics) {
    const bool higher_is_worse = name != kCacheHitRate;
    if (name == kCacheHitRate && latest_value < 0) continue;  // no traffic

    TrendMetric metric;
    metric.name = name;
    metric.higher_is_worse = higher_is_worse;
    metric.latest = latest_value;
    // Trailing window, latest included: walk back collecting values.
    for (auto it = considered.rbegin();
         it != considered.rend() && metric.history.size() < window; ++it) {
      const auto found = (*it)->metrics.find(name);
      if (found == (*it)->metrics.end()) continue;
      if (name == kCacheHitRate && found->second < 0) continue;
      metric.history.push_back(found->second);
    }
    std::reverse(metric.history.begin(), metric.history.end());

    metric.baseline = median(metric.history);
    std::vector<double> deviations;
    deviations.reserve(metric.history.size());
    for (const double v : metric.history) {
      deviations.push_back(std::abs(v - metric.baseline));
    }
    metric.mad = median(std::move(deviations));
    const double direction = higher_is_worse ? 1.0 : -1.0;
    metric.deviation = direction * (metric.latest - metric.baseline);
    const double gate = options.threshold * std::abs(metric.baseline) +
                        options.mad_factor * metric.mad;
    metric.regressed = metric.history.size() >= 2 && metric.deviation > gate;
    report.metrics.push_back(std::move(metric));
  }
  // Worst first, mirroring render_artifact_diff.
  std::stable_sort(report.metrics.begin(), report.metrics.end(),
                   [](const TrendMetric& a, const TrendMetric& b) {
                     if (a.regressed != b.regressed) return a.regressed;
                     return a.deviation > b.deviation;
                   });
  return report;
}

void render_ledger(const LedgerReadResult& ledger, std::ostream& os) {
  os << "  " << std::left << std::setw(6) << "bench" << std::setw(22)
     << "timestamp" << std::setw(14) << "git_sha" << std::setw(18) << "build"
     << std::setw(18) << "config" << std::setw(9) << "metrics"
     << "note" << "\n";
  for (const LedgerRecord& record : ledger.records) {
    const auto clip = [](const std::string& s, std::size_t n) {
      return s.size() > n ? s.substr(0, n) : s;
    };
    os << "  " << std::left << std::setw(6) << record.bench << std::setw(22)
       << clip(record.provenance.timestamp, 20) << std::setw(14)
       << clip(record.provenance.git_sha, 12) << std::setw(18)
       << clip(record.build, 16) << std::setw(18)
       << clip(record.config_digest, 16) << std::setw(9)
       << record.metrics.size() << record.provenance.note << "\n";
  }
  os << ledger.records.size() << " record(s)";
  if (ledger.corrupt_lines > 0) {
    os << ", " << ledger.corrupt_lines << " corrupt line(s) skipped";
  }
  os << "\n";
}

void render_trend(const TrendReport& report, std::ostream& os) {
  if (!report.usable()) {
    os << "trend: " << report.error << "\n";
    return;
  }
  os << "bench " << report.bench << ": " << report.runs << " run(s)";
  if (report.corrupt_lines > 0) {
    os << ", " << report.corrupt_lines << " corrupt line(s) skipped";
  }
  os << "\n";
  os << "  " << std::left << std::setw(28) << "metric" << std::right
     << std::setw(7) << "window" << std::setw(13) << "baseline"
     << std::setw(13) << "latest" << std::setw(10) << "drift"
     << "  trajectory\n";
  for (const TrendMetric& metric : report.metrics) {
    os << "  " << std::left << std::setw(28) << metric.name << std::right
       << std::setw(7) << metric.history.size() << std::setw(13)
       << format_metric(metric.name, metric.baseline) << std::setw(13)
       << format_metric(metric.name, metric.latest);
    // Drift relative to the baseline, signed in the metric's own
    // direction (positive = worse), matching the diff's percent column.
    std::ostringstream drift;
    if (metric.baseline != 0) {
      drift << std::showpos << std::fixed << std::setprecision(1)
            << (metric.latest - metric.baseline) / std::abs(metric.baseline) *
                   100
            << "%";
    } else {
      drift << "-";
    }
    os << std::setw(10) << drift.str() << "  ";
    for (std::size_t i = 0; i < metric.history.size(); ++i) {
      if (i > 0) os << " -> ";
      os << format_metric(metric.name, metric.history[i]);
    }
    if (metric.regressed) os << "  REGRESSION";
    os << "\n";
  }
  std::size_t regressions = 0;
  for (const TrendMetric& metric : report.metrics) {
    if (metric.regressed) ++regressions;
  }
  os << regressions << " regression(s) over " << report.metrics.size()
     << " metric(s)\n";
}

}  // namespace sor::telemetry
