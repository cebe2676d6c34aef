#include "telemetry/artifact.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace sor::telemetry {

std::string format_seconds(double seconds) {
  // Non-finite inputs reach here via corrupted artifacts or sentinel
  // metrics; pass them through spelled out rather than scaling garbage.
  if (std::isnan(seconds)) return "nan";
  if (std::isinf(seconds)) return seconds > 0 ? "inf s" : "-inf s";
  const char* sign = seconds < 0 ? "-" : "";
  double v = std::abs(seconds);
  const char* unit = "s";
  if (v >= 1 || v == 0) {
    // keep seconds
  } else if (v >= 1e-3) {
    v *= 1e3;
    unit = "ms";
  } else if (v >= 1e-6) {
    v *= 1e6;
    unit = "µs";
  } else {
    v *= 1e9;
    unit = "ns";
  }
  std::ostringstream os;
  os << sign << std::setprecision(3) << v << " " << unit;
  return os.str();
}

std::string format_quantity(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  const char* sign = value < 0 ? "-" : "";
  double v = std::abs(value);
  const char* suffix = "";
  if (v >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (v >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    v /= 1e3;
    suffix = "k";
  } else if (v == std::floor(v)) {
    // Small integer counts print exactly.
    std::ostringstream os;
    os << sign << static_cast<long long>(v);
    return os.str();
  }
  std::ostringstream os;
  os << sign << std::setprecision(3) << v << suffix;
  return os.str();
}

namespace {

std::string number_text(const JsonValue& v) {
  if (v.is_number()) {
    std::ostringstream os;
    os << v.as_number();
    return os.str();
  }
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  return v.dump(0);
}

/// Flattens the span forest into "root/child/..." path → seconds. Span
/// names already contain '/' (e.g. "engine/solve"); paths join nodes with
/// " > " so the hierarchy stays readable and unambiguous.
void flatten_spans(const JsonValue& nodes, const std::string& prefix,
                   std::map<std::string, double>& out) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const JsonValue& node = nodes.at(i);
    if (!node.is_object() || !node.has("name") || !node.has("seconds")) {
      continue;
    }
    const std::string path = prefix.empty()
                                 ? node.at("name").as_string()
                                 : prefix + " > " + node.at("name").as_string();
    out[path] = node.at("seconds").as_number();
    if (node.has("children")) flatten_spans(node.at("children"), path, out);
  }
}

std::map<std::string, double> artifact_spans(const JsonValue& doc) {
  std::map<std::string, double> out;
  if (doc.has("spans") && doc.at("spans").is_array()) {
    flatten_spans(doc.at("spans"), "", out);
  }
  return out;
}

void add_span_totals(const JsonValue& nodes,
                     std::map<std::string, SpanTotal>& out) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const JsonValue& node = nodes.at(i);
    if (!node.is_object() || !node.has("name") || !node.has("count") ||
        !node.has("seconds")) {
      continue;
    }
    SpanTotal& total = out[node.at("name").as_string()];
    total.calls += node.at("count").as_number();
    total.seconds += node.at("seconds").as_number();
    if (node.has("children")) add_span_totals(node.at("children"), out);
  }
}

}  // namespace

std::map<std::string, SpanTotal> span_totals(const JsonValue& doc) {
  std::map<std::string, SpanTotal> out;
  if (doc.is_object() && doc.has("spans") && doc.at("spans").is_array()) {
    add_span_totals(doc.at("spans"), out);
  }
  return out;
}

namespace {

/// Health sketches named "*_seconds" hold latencies; everything else
/// (congestion, counts) is a plain quantity. Drives format/threshold
/// selection for both the report and the diff.
bool is_seconds_sketch(const std::string& name) {
  constexpr const char* kSuffix = "_seconds";
  constexpr std::size_t kLen = 8;
  return name.size() >= kLen &&
         name.compare(name.size() - kLen, kLen, kSuffix) == 0;
}

/// health.sketches flattened to "<name>:<quantile>" → value, for the
/// diff. Only the stable summary fields — bucket arrays are layout, not
/// signal.
std::map<std::string, double> health_sketch_stats(const JsonValue& doc) {
  std::map<std::string, double> out;
  if (!doc.has("health") || !doc.at("health").is_object()) return out;
  const JsonValue& health = doc.at("health");
  if (!health.has("sketches") || !health.at("sketches").is_object()) {
    return out;
  }
  for (const auto& [name, sketch] : health.at("sketches").members()) {
    if (!sketch.is_object()) continue;
    for (const char* field : {"p50", "p99", "max"}) {
      if (sketch.has(field) && sketch.at(field).is_number()) {
        out[name + ":" + field] = sketch.at(field).as_number();
      }
    }
  }
  return out;
}

std::map<std::string, double> congestion_gauges(const JsonValue& doc) {
  std::map<std::string, double> out;
  if (!doc.has("telemetry")) return out;
  const JsonValue& telemetry = doc.at("telemetry");
  if (!telemetry.is_object() || !telemetry.has("gauges")) return out;
  for (const auto& [name, value] : telemetry.at("gauges").members()) {
    if (name.find("congestion") != std::string::npos && value.is_number()) {
      out[name] = value.as_number();
    }
  }
  return out;
}

double series_max(const JsonValue& series) {
  double best = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series.at(i).is_number()) best = std::max(best, series.at(i).as_number());
  }
  return best;
}

struct Comparison {
  std::string metric;
  double before = 0;
  double after = 0;
  bool time_like = false;  // span threshold + noise floor vs congestion
};

void collect(const JsonValue& before, const JsonValue& after,
             std::vector<Comparison>& out) {
  // Congestion gauges present in both.
  const auto gauges_a = congestion_gauges(before);
  const auto gauges_b = congestion_gauges(after);
  for (const auto& [name, value] : gauges_a) {
    const auto it = gauges_b.find(name);
    if (it != gauges_b.end()) {
      out.push_back({"gauge:" + name, value, it->second, false});
    }
  }

  // Top-link utilization of the attribution block.
  const auto top_utilization = [](const JsonValue& doc) -> double {
    if (!doc.has("attribution")) return -1;
    const JsonValue& attribution = doc.at("attribution");
    if (!attribution.is_object() || !attribution.has("max_utilization") ||
        !attribution.at("max_utilization").is_number()) {
      return -1;
    }
    return attribution.at("max_utilization").as_number();
  };
  const double util_a = top_utilization(before);
  const double util_b = top_utilization(after);
  if (util_a >= 0 && util_b >= 0) {
    out.push_back({"attribution:max_utilization", util_a, util_b, false});
  }

  // Per-name span totals — unlike span paths, these survive moving a
  // stage under a new parent, so they are the durable solver-time
  // regression signal.
  const auto cost_a = span_totals(before);
  const auto cost_b = span_totals(after);
  for (const auto& [name, total] : cost_a) {
    const auto it = cost_b.find(name);
    if (it != cost_b.end()) {
      out.push_back({"cost:" + name, total.seconds, it->second.seconds, true});
    }
  }

  // Spans, flattened, plus total wall clock.
  const auto spans_a = artifact_spans(before);
  const auto spans_b = artifact_spans(after);
  for (const auto& [path, seconds] : spans_a) {
    const auto it = spans_b.find(path);
    if (it != spans_b.end()) {
      out.push_back({"span:" + path, seconds, it->second, true});
    }
  }
  if (before.has("wall_seconds") && after.has("wall_seconds") &&
      before.at("wall_seconds").is_number() &&
      after.at("wall_seconds").is_number()) {
    out.push_back({"wall_seconds", before.at("wall_seconds").as_number(),
                   after.at("wall_seconds").as_number(), true});
  }

  // Health sketch quantiles (schema v5): latency sketches diff as
  // time-like (span threshold + noise floor), congestion/count sketches
  // as quantities.
  const auto health_a = health_sketch_stats(before);
  const auto health_b = health_sketch_stats(after);
  for (const auto& [stat, value] : health_a) {
    const auto it = health_b.find(stat);
    if (it == health_b.end()) continue;
    const std::string sketch_name = stat.substr(0, stat.rfind(':'));
    out.push_back(
        {"health:" + stat, value, it->second, is_seconds_sketch(sketch_name)});
  }

  // E16 control-loop block: per-mode peak congestion and solve time.
  if (before.has("e16") && after.has("e16") && before.at("e16").is_object() &&
      after.at("e16").is_object() && before.at("e16").has("modes") &&
      after.at("e16").has("modes")) {
    const JsonValue& modes_a = before.at("e16").at("modes");
    const JsonValue& modes_b = after.at("e16").at("modes");
    for (const auto& [mode, block_a] : modes_a.members()) {
      if (!modes_b.has(mode)) continue;
      const JsonValue& block_b = modes_b.at(mode);
      if (block_a.has("per_epoch_congestion") &&
          block_b.has("per_epoch_congestion")) {
        out.push_back({"e16:" + mode + ":peak_congestion",
                       series_max(block_a.at("per_epoch_congestion")),
                       series_max(block_b.at("per_epoch_congestion")), false});
      }
      if (block_a.has("total_solve_ms") && block_b.has("total_solve_ms") &&
          block_a.at("total_solve_ms").is_number() &&
          block_b.at("total_solve_ms").is_number()) {
        out.push_back({"e16:" + mode + ":total_solve_ms",
                       block_a.at("total_solve_ms").as_number() / 1e3,
                       block_b.at("total_solve_ms").as_number() / 1e3, true});
      }
    }
  }
}

}  // namespace

ArtifactDiffResult diff_artifacts(const JsonValue& before,
                                  const JsonValue& after,
                                  const ArtifactDiffOptions& options) {
  ArtifactDiffResult result;
  if (!before.is_object() || !before.has("experiment") ||
      !after.is_object() || !after.has("experiment")) {
    result.error = "document is not a BENCH artifact (no \"experiment\" key)";
    return result;
  }
  const std::string exp_a = before.at("experiment").as_string();
  const std::string exp_b = after.at("experiment").as_string();
  if (exp_a != exp_b) {
    result.error = "artifacts compare different experiments: \"" + exp_a +
                   "\" vs \"" + exp_b + "\"";
    return result;
  }

  std::vector<Comparison> comparisons;
  collect(before, after, comparisons);
  for (const Comparison& c : comparisons) {
    if (c.time_like && c.before < options.span_min_seconds &&
        c.after < options.span_min_seconds) {
      continue;  // both under the noise floor
    }
    ArtifactDiffEntry entry;
    entry.metric = c.metric;
    entry.before = c.before;
    entry.after = c.after;
    entry.time_like = c.time_like;
    if (c.before > 0) {
      entry.relative = (c.after - c.before) / c.before;
    } else if (c.after > 0) {
      entry.relative = std::numeric_limits<double>::infinity();
    }
    const double threshold =
        c.time_like ? options.span_threshold : options.congestion_threshold;
    if (entry.relative > threshold) {
      result.regressions.push_back(entry);
    } else if (entry.relative < -threshold) {
      result.improvements.push_back(entry);
    } else {
      result.unchanged.push_back(entry);
    }
  }
  // Worst first, so CI logs lead with the headline.
  const auto by_relative = [](const ArtifactDiffEntry& a,
                              const ArtifactDiffEntry& b) {
    return a.relative > b.relative;
  };
  std::sort(result.regressions.begin(), result.regressions.end(), by_relative);
  std::sort(result.improvements.begin(), result.improvements.end(),
            [](const ArtifactDiffEntry& a, const ArtifactDiffEntry& b) {
              return a.relative < b.relative;
            });
  return result;
}

namespace {

void render_entries(const std::vector<ArtifactDiffEntry>& entries,
                    const char* tag, std::ostream& os) {
  for (const ArtifactDiffEntry& entry : entries) {
    const auto fmt = [&](double v) {
      return entry.time_like ? format_seconds(v) : format_quantity(v);
    };
    os << "  " << std::left << std::setw(44) << entry.metric << std::right
       << std::setw(12) << fmt(entry.before) << " -> " << std::setw(12)
       << fmt(entry.after);
    if (std::isfinite(entry.relative)) {
      os << "  (" << std::showpos << std::fixed << std::setprecision(1)
         << entry.relative * 100 << "%" << std::noshowpos
         << std::defaultfloat << std::setprecision(6) << ")";
    } else {
      os << "  (new nonzero)";
    }
    os << "  " << tag << "\n";
  }
}

}  // namespace

void render_artifact_diff(const ArtifactDiffResult& result, std::ostream& os) {
  if (!result.comparable()) {
    os << "not comparable: " << result.error << "\n";
    return;
  }
  render_entries(result.regressions, "REGRESSION", os);
  render_entries(result.improvements, "improved", os);
  render_entries(result.unchanged, "ok", os);
  os << result.regressions.size() << " regression(s), "
     << result.improvements.size() << " improvement(s), "
     << result.unchanged.size() << " unchanged\n";
}

namespace {

void render_table(const JsonValue& table, std::ostream& os) {
  if (!table.is_object() || !table.has("columns") || !table.has("rows")) {
    return;
  }
  const JsonValue& columns = table.at("columns");
  const JsonValue& rows = table.at("rows");
  std::vector<std::size_t> widths(columns.size(), 0);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    widths[c] = columns.at(c).as_string().size();
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows.at(r).size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], rows.at(r).at(c).as_string().size());
    }
  }
  const auto print_row = [&](const JsonValue& cells) {
    os << "  ";
    for (std::size_t c = 0; c < cells.size() && c < widths.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c] + 2))
         << cells.at(c).as_string();
    }
    os << "\n";
  };
  print_row(columns);
  for (std::size_t r = 0; r < rows.size(); ++r) print_row(rows.at(r));
}

void render_top_spans(const JsonValue& doc, std::ostream& os) {
  const auto spans = artifact_spans(doc);
  if (spans.empty()) return;
  std::vector<std::pair<std::string, double>> sorted(spans.begin(),
                                                     spans.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  os << "top spans:\n";
  const std::size_t top = std::min<std::size_t>(sorted.size(), 10);
  for (std::size_t i = 0; i < top; ++i) {
    os << "  " << std::left << std::setw(52) << sorted[i].first << std::right
       << std::setw(10) << format_seconds(sorted[i].second) << "\n";
  }
}

void render_attribution(const JsonValue& doc, std::ostream& os) {
  if (!doc.has("attribution") || !doc.at("attribution").is_object()) return;
  const JsonValue& attribution = doc.at("attribution");
  if (!attribution.has("links")) return;
  const JsonValue& links = attribution.at("links");
  os << "bottleneck links (top " << links.size() << "):\n";
  for (std::size_t i = 0; i < links.size(); ++i) {
    const JsonValue& link = links.at(i);
    os << "  link " << link.at("u").as_number() << "-"
       << link.at("v").as_number() << "  util "
       << link.at("utilization").as_number() << "  load "
       << link.at("load").as_number() << " / cap "
       << link.at("capacity").as_number() << "\n";
    const JsonValue& contributors = link.at("contributors");
    const std::size_t top = std::min<std::size_t>(contributors.size(), 3);
    for (std::size_t c = 0; c < top; ++c) {
      const JsonValue& contributor = contributors.at(c);
      os << "      pair " << contributor.at("src").as_number() << "->"
         << contributor.at("dst").as_number() << " path#"
         << contributor.at("path_index").as_number() << " ("
         << contributor.at("hops").as_number() << " hops)  load "
         << contributor.at("load").as_number() << "  share "
         << contributor.at("share").as_number() << "\n";
    }
    if (contributors.size() > top) {
      os << "      ... " << contributors.size() - top
         << " more contributor(s)\n";
    }
  }
}

/// Health block: sketch quantile table (each sketch's max is its
/// watermark) and the SLO breach list. Latency sketches render with
/// format_seconds, the rest with format_quantity.
void render_health(const JsonValue& doc, std::ostream& os) {
  if (!doc.has("health") || !doc.at("health").is_object()) return;
  const JsonValue& health = doc.at("health");
  if (health.has("enabled") && health.at("enabled").is_bool() &&
      !health.at("enabled").as_bool()) {
    os << "health: telemetry disabled\n";
    return;
  }
  os << "health: ";
  const bool breached = health.has("status") &&
                        health.at("status").is_number() &&
                        health.at("status").as_number() != 0;
  os << (breached ? "BREACHED" : "OK");
  if (health.has("recorder") && health.at("recorder").is_object() &&
      health.at("recorder").has("dropped")) {
    os << ", " << number_text(health.at("recorder").at("dropped"))
       << " recorder drop(s)";
  }
  os << "\n";
  if (health.has("sketches") && health.at("sketches").is_object() &&
      health.at("sketches").members().size() > 0) {
    os << "  " << std::left << std::setw(36) << "sketch" << std::right
       << std::setw(10) << "count" << std::setw(12) << "p50" << std::setw(12)
       << "p95" << std::setw(12) << "p99" << std::setw(12) << "max" << "\n";
    for (const auto& [name, sketch] : health.at("sketches").members()) {
      if (!sketch.is_object()) continue;
      const bool seconds = is_seconds_sketch(name);
      const auto fmt = [&](const char* field) -> std::string {
        if (!sketch.has(field) || !sketch.at(field).is_number()) return "-";
        const double v = sketch.at(field).as_number();
        return seconds ? format_seconds(v) : format_quantity(v);
      };
      os << "  " << std::left << std::setw(36) << name << std::right
         << std::setw(10)
         << (sketch.has("count") ? number_text(sketch.at("count")) : "-")
         << std::setw(12) << fmt("p50") << std::setw(12) << fmt("p95")
         << std::setw(12) << fmt("p99") << std::setw(12) << fmt("max")
         << "\n";
    }
  }
  if (health.has("breaches") && health.at("breaches").is_array() &&
      health.at("breaches").size() > 0) {
    const JsonValue& breaches = health.at("breaches");
    os << "  SLO breaches (" << breaches.size() << "):\n";
    const std::size_t top = std::min<std::size_t>(breaches.size(), 8);
    for (std::size_t i = 0; i < top; ++i) {
      const JsonValue& b = breaches.at(i);
      os << "    epoch " << number_text(b.at("epoch")) << "  "
         << b.at("slo").as_string() << "  observed "
         << format_quantity(b.at("value").as_number()) << "  budget "
         << format_quantity(b.at("budget").as_number()) << "\n";
    }
    if (breaches.size() > top) {
      os << "    ... " << breaches.size() - top << " more\n";
    }
  }
}

void render_events(const JsonValue& doc, std::ostream& os) {
  if (!doc.has("events") || !doc.at("events").is_object()) return;
  const JsonValue& block = doc.at("events");
  if (!block.has("events")) return;
  const JsonValue& events = block.at("events");
  std::map<std::string, std::size_t> by_category;
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_category[events.at(i).at("category").as_string()] += 1;
  }
  os << "flight recorder: " << number_text(block.at("total"))
     << " event(s), " << number_text(block.at("dropped")) << " dropped\n";
  for (const auto& [category, count] : by_category) {
    os << "  " << std::left << std::setw(32) << category << std::right
       << std::setw(8) << count << "\n";
  }
  const std::size_t tail = std::min<std::size_t>(events.size(), 5);
  if (tail > 0) os << "last " << tail << " event(s):\n";
  for (std::size_t i = events.size() - tail; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    os << "  [" << std::fixed << std::setprecision(3)
       << event.at("t").as_number() << std::defaultfloat
       << std::setprecision(6) << "s] " << event.at("category").as_string();
    for (const auto& [key, value] : event.at("fields").members()) {
      os << " " << key << "=" << number_text(value);
    }
    os << "\n";
  }
}

void render_memory(const JsonValue& doc, std::ostream& os) {
  if (!doc.has("memory") || !doc.at("memory").is_object()) return;
  const JsonValue& block = doc.at("memory");
  os << "memory:";
  if (block.has("peak_rss_bytes") && block.at("peak_rss_bytes").is_number()) {
    os << " peak rss " << format_quantity(block.at("peak_rss_bytes").as_number())
       << "B";
  }
  if (block.has("current_rss_bytes") &&
      block.at("current_rss_bytes").is_number()) {
    os << "  (current "
       << format_quantity(block.at("current_rss_bytes").as_number()) << "B)";
  }
  os << "\n";
  if (block.has("subsystems") && block.at("subsystems").is_object() &&
      block.at("subsystems").size() > 0) {
    os << "  " << std::left << std::setw(16) << "subsystem" << std::right
       << std::setw(12) << "high-water" << std::setw(12) << "live" << "\n";
    for (const auto& [name, fig] : block.at("subsystems").members()) {
      if (!fig.is_object()) continue;
      const double hwm = fig.has("high_water_bytes")
                             ? fig.at("high_water_bytes").as_number()
                             : 0;
      const double live =
          fig.has("live_bytes") ? fig.at("live_bytes").as_number() : 0;
      os << "  " << std::left << std::setw(16) << name << std::right
         << std::setw(12) << (format_quantity(hwm) + "B") << std::setw(12)
         << (format_quantity(live) + "B") << "\n";
    }
  }
  os << "\n";
}

}  // namespace

void render_artifact_report(const JsonValue& doc, std::ostream& os) {
  SOR_CHECK_MSG(doc.is_object() && doc.has("experiment"),
                "document is not a BENCH artifact (no \"experiment\" key)");
  os << "experiment: " << doc.at("experiment").as_string();
  if (doc.has("title")) os << "  —  " << doc.at("title").as_string();
  os << "\n";
  if (doc.has("claim")) os << "claim: " << doc.at("claim").as_string() << "\n";
  if (doc.has("git_describe")) {
    os << "tree: " << doc.at("git_describe").as_string();
    if (doc.has("quick_mode") && doc.at("quick_mode").is_bool() &&
        doc.at("quick_mode").as_bool()) {
      os << "  (quick mode)";
    }
    os << "\n";
  }
  if (doc.has("provenance") && doc.at("provenance").is_object()) {
    const JsonValue& prov = doc.at("provenance");
    os << "build:";
    for (const char* key : {"compiler_id", "compiler_version", "build_type"}) {
      if (prov.has(key) && prov.at(key).is_string()) {
        os << " " << prov.at(key).as_string();
      }
    }
    if (prov.has("sanitize") && prov.at("sanitize").is_string() &&
        prov.at("sanitize").as_string() != "off") {
      os << " sanitize=" << prov.at("sanitize").as_string();
    }
    if (prov.has("build_fingerprint") &&
        prov.at("build_fingerprint").is_string()) {
      os << "  [" << prov.at("build_fingerprint").as_string() << "]";
    }
    os << "\n";
  }
  if (doc.has("schema_version")) {
    os << "schema: v" << number_text(doc.at("schema_version")) << "\n";
  }
  if (doc.has("wall_seconds") && doc.at("wall_seconds").is_number()) {
    os << "wall: " << format_seconds(doc.at("wall_seconds").as_number())
       << "\n";
  }
  os << "\n";
  if (doc.has("table")) {
    render_table(doc.at("table"), os);
    os << "\n";
  }
  render_top_spans(doc, os);
  render_health(doc, os);
  render_memory(doc, os);
  render_attribution(doc, os);
  render_events(doc, os);
}

namespace {

void render_cost_accounting(const JsonValue& doc, std::ostream& os) {
  const auto totals = span_totals(doc);
  if (totals.empty()) return;
  const JsonValue* counters = nullptr;
  if (doc.has("telemetry") && doc.at("telemetry").is_object() &&
      doc.at("telemetry").has("counters")) {
    counters = &doc.at("telemetry").at("counters");
  }
  // Most expensive first.
  std::vector<std::pair<std::string, SpanTotal>> sorted(totals.begin(),
                                                        totals.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.seconds > b.second.seconds;
                   });
  os << "per-span cost:\n";
  os << "  " << std::left << std::setw(28) << "span" << std::right
     << std::setw(10) << "calls" << std::setw(12) << "total" << std::setw(12)
     << "per-call" << std::setw(10) << "bytes" << "\n";
  for (const auto& [name, total] : sorted) {
    const std::string bytes_key = name + "_bytes";
    const double bytes = counters != nullptr && counters->has(bytes_key) &&
                                 counters->at(bytes_key).is_number()
                             ? counters->at(bytes_key).as_number()
                             : 0;
    os << "  " << std::left << std::setw(28) << name << std::right
       << std::setw(10) << format_quantity(total.calls) << std::setw(12)
       << format_seconds(total.seconds) << std::setw(12)
       << (total.calls > 0 ? format_seconds(total.seconds / total.calls)
                           : "-")
       << std::setw(10) << format_quantity(bytes) << "\n";
  }
}

void render_convergence(const JsonValue& doc, std::ostream& os) {
  if (!doc.has("convergence") || !doc.at("convergence").is_object()) {
    os << "no convergence block (schema < v3 or telemetry disabled)\n";
    return;
  }
  const JsonValue& block = doc.at("convergence");
  if (!block.has("traces")) return;
  const JsonValue& traces = block.at("traces");
  os << "convergence traces: " << traces.size() << " kept";
  if (block.has("dropped")) {
    os << ", " << number_text(block.at("dropped")) << " dropped";
  }
  os << "\n";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const JsonValue& trace = traces.at(i);
    std::string name = trace.at("solver").as_string();
    if (trace.has("label") && !trace.at("label").as_string().empty()) {
      name += "/" + trace.at("label").as_string();
    }
    os << "  " << std::left << std::setw(20) << name << std::right;
    const JsonValue& points = trace.at("points");
    os << format_quantity(trace.at("iterations").as_number()) << " iter, "
       << points.size() << " pts";
    if (trace.has("truncated") && trace.at("truncated").is_bool() &&
        trace.at("truncated").as_bool()) {
      os << " [TRUNCATED]";
    }
    if (points.size() > 0) {
      const JsonValue& last = points.at(points.size() - 1);
      os << "  obj " << format_quantity(last.at("objective").as_number());
      const double bound = last.at("bound").as_number();
      if (bound > 0) {
        os << "  bound " << format_quantity(bound) << "  gap "
           << std::setprecision(3) << last.at("gap").as_number() * 100 << "%";
      }
    }
    if (trace.has("counters")) {
      for (const auto& [key, value] : trace.at("counters").members()) {
        os << "  " << key << "=" << format_quantity(value.as_number());
      }
    }
    os << "\n";
  }
}

}  // namespace

void render_artifact_profile(const JsonValue& doc, std::ostream& os) {
  SOR_CHECK_MSG(doc.is_object() && doc.has("experiment"),
                "document is not a BENCH artifact (no \"experiment\" key)");
  os << "experiment: " << doc.at("experiment").as_string();
  if (doc.has("title")) os << "  —  " << doc.at("title").as_string();
  os << "\n";
  if (doc.has("wall_seconds") && doc.at("wall_seconds").is_number()) {
    os << "wall: " << format_seconds(doc.at("wall_seconds").as_number())
       << "\n";
  }
  os << "\n";
  render_cost_accounting(doc, os);
  render_convergence(doc, os);
  render_top_spans(doc, os);
}

namespace {

/// Fixed-precision number for the quality table; non-finite → "-".
std::string quality_cell(double v, int precision) {
  if (!std::isfinite(v)) return "-";
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

double number_or(const JsonValue& obj, const char* key, double fallback) {
  if (obj.is_object() && obj.has(key) && obj.at(key).is_number()) {
    return obj.at(key).as_number();
  }
  return fallback;
}

double element_or(const JsonValue& block, const char* key, std::size_t i,
                  double fallback) {
  if (!block.is_object() || !block.has(key)) return fallback;
  const JsonValue& arr = block.at(key);
  if (!arr.is_array() || i >= arr.size() || !arr.at(i).is_number()) {
    return fallback;
  }
  return arr.at(i).as_number();
}

}  // namespace

void render_artifact_quality(const JsonValue& doc, std::ostream& os) {
  SOR_CHECK_MSG(doc.is_object() && doc.has("experiment"),
                "document is not a BENCH artifact (no \"experiment\" key)");
  os << "experiment: " << doc.at("experiment").as_string();
  if (doc.has("title")) os << "  —  " << doc.at("title").as_string();
  os << "\n";
  if (!doc.has("quality") || !doc.at("quality").is_object()) {
    os << "no quality block (schema < v7 or observatory disabled)\n";
    return;
  }
  const JsonValue& q = doc.at("quality");
  const std::size_t epochs = static_cast<std::size_t>(number_or(q, "epochs", 0));
  os << "observatory: " << epochs << " epochs, shadow every "
     << static_cast<long long>(number_or(q, "shadow_every", 0))
     << " (eps " << number_or(q, "shadow_epsilon", 0) << "), "
     << static_cast<long long>(number_or(q, "shadow_solves", 0))
     << " shadow solves\n";

  // Map sampled epoch -> index into the regret arrays.
  std::map<std::size_t, std::size_t> sample_at;
  const JsonValue* regret =
      q.has("regret") && q.at("regret").is_object() ? &q.at("regret") : nullptr;
  if (regret != nullptr && regret->has("epochs") &&
      regret->at("epochs").is_array()) {
    const JsonValue& sampled = regret->at("epochs");
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      if (sampled.at(i).is_number()) {
        sample_at[static_cast<std::size_t>(sampled.at(i).as_number())] = i;
      }
    }
  }
  if (sample_at.empty()) {
    os << "regret: no shadow samples\n";
  } else {
    os << "regret: " << sample_at.size() << " samples  p50 "
       << quality_cell(number_or(*regret, "p50",
                                 std::numeric_limits<double>::quiet_NaN()),
                       4)
       << "  p95 "
       << quality_cell(number_or(*regret, "p95",
                                 std::numeric_limits<double>::quiet_NaN()),
                       4)
       << "  max "
       << quality_cell(number_or(*regret, "max",
                                 std::numeric_limits<double>::quiet_NaN()),
                       4)
       << "  (" << static_cast<long long>(number_or(*regret, "truncated", 0))
       << " truncated)\n";
  }

  const JsonValue* predictor =
      q.has("predictor") && q.at("predictor").is_object() ? &q.at("predictor")
                                                          : nullptr;
  if (predictor != nullptr) {
    const long long scored =
        static_cast<long long>(number_or(*predictor, "scored_epochs", 0));
    if (scored == 0) {
      os << "predictor: no scored epochs\n";
    } else {
      os << "predictor: " << scored << "/" << epochs
         << " epochs scored  mape mean "
         << quality_cell(number_or(*predictor, "mape_mean", 0), 4) << "  max "
         << quality_cell(number_or(*predictor, "mape_max", 0), 4) << "\n";
    }
  }
  const JsonValue* churn =
      q.has("churn") && q.at("churn").is_object() ? &q.at("churn") : nullptr;
  if (churn != nullptr) {
    os << "churn: total top-path flips "
       << static_cast<long long>(number_or(*churn, "total_top_path_flips", 0))
       << "\n";
  }
  if (epochs == 0) return;

  os << "\n"
     << std::left << std::setw(7) << "epoch" << std::right << std::setw(9)
     << "regret" << std::setw(11) << "achieved" << std::setw(11) << "opt"
     << std::setw(9) << "mape" << std::setw(13) << "worst_pair" << std::setw(9)
     << "hamming" << std::setw(10) << "w_l1" << std::setw(7) << "flips"
     << "\n";
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    std::string regret_cell = "-";
    std::string achieved_cell = "-";
    std::string opt_cell = "-";
    if (const auto it = sample_at.find(epoch); it != sample_at.end()) {
      regret_cell =
          quality_cell(element_or(*regret, "ratio", it->second, kNan), 4);
      achieved_cell =
          quality_cell(element_or(*regret, "achieved", it->second, kNan), 4);
      opt_cell =
          quality_cell(element_or(*regret, "shadow_opt", it->second, kNan), 4);
    }
    std::string mape_cell = "-";
    std::string pair_cell = "-";
    if (predictor != nullptr) {
      const double mape = element_or(*predictor, "mape", epoch, -1);
      if (mape >= 0) {
        mape_cell = quality_cell(mape, 4);
        if (predictor->has("worst_pair") &&
            predictor->at("worst_pair").is_array() &&
            epoch < predictor->at("worst_pair").size()) {
          const JsonValue& pair = predictor->at("worst_pair").at(epoch);
          if (pair.is_array() && pair.size() == 2 && pair.at(0).is_number() &&
              pair.at(1).is_number()) {
            std::ostringstream ps;
            ps << static_cast<long long>(pair.at(0).as_number()) << "->"
               << static_cast<long long>(pair.at(1).as_number());
            pair_cell = ps.str();
          }
        }
      }
    }
    std::string hamming_cell = "-";
    std::string drift_cell = "-";
    std::string flips_cell = "-";
    if (churn != nullptr) {
      const double hamming = element_or(*churn, "mask_hamming", epoch, kNan);
      const double drift = element_or(*churn, "weight_l1", epoch, kNan);
      const double flips = element_or(*churn, "top_path_flips", epoch, kNan);
      if (std::isfinite(hamming)) {
        hamming_cell = quality_cell(hamming, 0);
      }
      if (std::isfinite(drift)) drift_cell = quality_cell(drift, 3);
      if (std::isfinite(flips)) flips_cell = quality_cell(flips, 0);
    }
    os << std::left << std::setw(7) << epoch << std::right << std::setw(9)
       << regret_cell << std::setw(11) << achieved_cell << std::setw(11)
       << opt_cell << std::setw(9) << mape_cell << std::setw(13) << pair_cell
       << std::setw(9) << hamming_cell << std::setw(10) << drift_cell
       << std::setw(7) << flips_cell << "\n";
  }
}

}  // namespace sor::telemetry
