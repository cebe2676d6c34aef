#include "telemetry/artifact.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
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

/// The one unit rule: "*_seconds" is a duration in seconds, "*_ms" one in
/// milliseconds, anything else a quantity. Returns the duration in
/// seconds, or nullopt for a quantity.
std::optional<double> metric_seconds(std::string_view name, double value) {
  if (name.ends_with("_seconds")) return value;
  if (name.ends_with("_ms")) return value / 1e3;
  return std::nullopt;
}

}  // namespace

std::string format_metric(std::string_view name, double value) {
  const std::optional<double> seconds = metric_seconds(name, value);
  return seconds ? format_seconds(*seconds) : format_quantity(value);
}

const JsonValue* find_path(const JsonValue& doc,
                           std::initializer_list<std::string_view> path) {
  const JsonValue* node = &doc;
  for (const std::string_view key : path) {
    if (!node->is_object() || !node->has(key)) return nullptr;
    node = &node->at(key);
  }
  return node;
}

double number_at(const JsonValue& doc,
                 std::initializer_list<std::string_view> path,
                 double fallback) {
  const JsonValue* node = find_path(doc, path);
  return node != nullptr && node->is_number() ? node->as_number() : fallback;
}

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

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
  const JsonValue* spans = find_path(doc, {"spans"});
  if (spans != nullptr && spans->is_array()) add_span_totals(*spans, out);
  return out;
}

namespace {

/// health.sketches flattened to "<name>:<quantile>" → value, for the
/// diff. Only the stable summary fields — bucket arrays are layout, not
/// signal.
std::map<std::string, double> health_sketch_stats(const JsonValue& doc) {
  std::map<std::string, double> out;
  const JsonValue* sketches = find_path(doc, {"health", "sketches"});
  if (sketches == nullptr || !sketches->is_object()) return out;
  for (const auto& [name, sketch] : sketches->members()) {
    for (const char* field : {"p50", "p99", "max"}) {
      const double value = number_at(sketch, {field}, kNan);
      if (!std::isnan(value)) out[name + ":" + field] = value;
    }
  }
  return out;
}

double series_max(const JsonValue& series) {
  double best = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series.at(i).is_number()) {
      best = std::max(best, series.at(i).as_number());
    }
  }
  return best;
}

/// Appends one figure both artifacts carry, converted to seconds when
/// `unit_name` names a duration (metric_seconds).
void compare(std::vector<ArtifactDiffEntry>& out, std::string metric,
             std::string_view unit_name, double before, double after) {
  ArtifactDiffEntry entry;
  entry.metric = std::move(metric);
  const std::optional<double> before_seconds =
      metric_seconds(unit_name, before);
  entry.time_like = before_seconds.has_value();
  entry.before = before_seconds.value_or(before);
  entry.after = metric_seconds(unit_name, after).value_or(after);
  out.push_back(std::move(entry));
}

void collect(const JsonValue& before, const JsonValue& after,
             std::vector<ArtifactDiffEntry>& out) {
  // Top-link utilization of the attribution block.
  const double util_a =
      number_at(before, {"attribution", "max_utilization"}, -1);
  const double util_b =
      number_at(after, {"attribution", "max_utilization"}, -1);
  if (util_a >= 0 && util_b >= 0) {
    compare(out, "attribution:max_utilization", "max_utilization", util_a,
            util_b);
  }

  // Per-name span totals: a name, unlike a place in the span tree,
  // survives moving a stage under a new parent, so these are the durable
  // solver-time regression signal. A span's time is the sum of its
  // "<name>_seconds" sketch.
  const auto cost_b = span_totals(after);
  for (const auto& [name, total] : span_totals(before)) {
    const auto it = cost_b.find(name);
    if (it != cost_b.end()) {
      compare(out, "cost:" + name, name + "_seconds", total.seconds,
              it->second.seconds);
    }
  }
  const double wall_a = number_at(before, {"wall_seconds"}, kNan);
  const double wall_b = number_at(after, {"wall_seconds"}, kNan);
  if (!std::isnan(wall_a) && !std::isnan(wall_b)) {
    compare(out, "wall_seconds", "wall_seconds", wall_a, wall_b);
  }

  const auto health_b = health_sketch_stats(after);
  for (const auto& [stat, value] : health_sketch_stats(before)) {
    const auto it = health_b.find(stat);
    if (it == health_b.end()) continue;
    compare(out, "health:" + stat, stat.substr(0, stat.rfind(':')), value,
            it->second);
  }

  // E16 control-loop block: per-mode peak congestion and solve time.
  const JsonValue* modes_a = find_path(before, {"e16", "modes"});
  const JsonValue* modes_b = find_path(after, {"e16", "modes"});
  if (modes_a == nullptr || modes_b == nullptr || !modes_a->is_object()) {
    return;
  }
  for (const auto& [mode, block_a] : modes_a->members()) {
    const JsonValue* block_b = find_path(*modes_b, {mode});
    if (block_b == nullptr) continue;
    const JsonValue* series_a = find_path(block_a, {"per_epoch_congestion"});
    const JsonValue* series_b = find_path(*block_b, {"per_epoch_congestion"});
    if (series_a != nullptr && series_b != nullptr) {
      compare(out, "e16:" + mode + ":peak_congestion", "peak_congestion",
              series_max(*series_a), series_max(*series_b));
    }
    const double solve_a = number_at(block_a, {"total_solve_ms"}, kNan);
    const double solve_b = number_at(*block_b, {"total_solve_ms"}, kNan);
    if (!std::isnan(solve_a) && !std::isnan(solve_b)) {
      compare(out, "e16:" + mode + ":total_solve_ms", "total_solve_ms",
              solve_a, solve_b);
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

  std::vector<ArtifactDiffEntry> entries;
  collect(before, after, entries);
  for (ArtifactDiffEntry& entry : entries) {
    if (entry.time_like && entry.before < options.span_min_seconds &&
        entry.after < options.span_min_seconds) {
      continue;  // both under the noise floor
    }
    if (entry.before > 0) {
      entry.relative = (entry.after - entry.before) / entry.before;
    } else if (entry.after > 0) {
      entry.relative = std::numeric_limits<double>::infinity();
    }
    const double threshold = entry.time_like ? options.span_threshold
                                             : options.congestion_threshold;
    if (entry.relative > threshold) {
      result.regressions.push_back(std::move(entry));
    } else if (entry.relative < -threshold) {
      result.improvements.push_back(std::move(entry));
    } else {
      result.unchanged.push_back(std::move(entry));
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

void render_build_line(const JsonValue& doc, std::string_view label,
                       std::ostream& os) {
  const JsonValue* prov = find_path(doc, {"provenance"});
  if (prov == nullptr || !prov->is_object()) return;
  os << label << "build:";
  for (const char* key : {"compiler_id", "compiler_version", "build_type"}) {
    if (prov->has(key) && prov->at(key).is_string()) {
      os << " " << prov->at(key).as_string();
    }
  }
  if (prov->has("sanitize") && prov->at("sanitize").is_string() &&
      prov->at("sanitize").as_string() != "off") {
    os << " sanitize=" << prov->at("sanitize").as_string();
  }
  if (prov->has("build_fingerprint") &&
      prov->at("build_fingerprint").is_string()) {
    os << "  [" << prov->at("build_fingerprint").as_string() << "]";
  }
  os << "\n";
}

namespace {

void render_header(const JsonValue& doc, std::ostream& os) {
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
  render_build_line(doc, "", os);
  if (doc.has("schema_version")) {
    os << "schema: v" << number_text(doc.at("schema_version")) << "\n";
  }
  const double wall = number_at(doc, {"wall_seconds"}, kNan);
  if (!std::isnan(wall)) os << "wall: " << format_seconds(wall) << "\n";
  os << "\n";
}

void render_table(const JsonValue& doc, std::ostream& os) {
  const JsonValue* columns = find_path(doc, {"table", "columns"});
  const JsonValue* rows = find_path(doc, {"table", "rows"});
  if (columns == nullptr || rows == nullptr) return;
  std::vector<std::size_t> widths(columns->size(), 0);
  for (std::size_t c = 0; c < columns->size(); ++c) {
    widths[c] = columns->at(c).as_string().size();
  }
  for (std::size_t r = 0; r < rows->size(); ++r) {
    for (std::size_t c = 0; c < rows->at(r).size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], rows->at(r).at(c).as_string().size());
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
  print_row(*columns);
  for (std::size_t r = 0; r < rows->size(); ++r) print_row(rows->at(r));
  os << "\n";
}

void render_cost(const JsonValue& doc, std::ostream& os) {
  const auto totals = span_totals(doc);
  if (totals.empty()) return;
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
    const double bytes =
        number_at(doc, {"health", "sketches", name + "_bytes", "sum"}, 0);
    os << "  " << std::left << std::setw(28) << name << std::right
       << std::setw(10) << format_quantity(total.calls) << std::setw(12)
       << format_seconds(total.seconds) << std::setw(12)
       << (total.calls > 0 ? format_seconds(total.seconds / total.calls)
                           : "-")
       << std::setw(10) << format_quantity(bytes) << "\n";
  }
}

void render_convergence(const JsonValue& doc, std::ostream& os) {
  const JsonValue* block = find_path(doc, {"convergence"});
  const JsonValue* traces = find_path(doc, {"convergence", "traces"});
  if (traces == nullptr) return;
  os << "convergence traces: " << traces->size() << " kept";
  if (block->has("dropped")) {
    os << ", " << number_text(block->at("dropped")) << " dropped";
  }
  os << "\n";
  for (std::size_t i = 0; i < traces->size(); ++i) {
    const JsonValue& trace = traces->at(i);
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
           << std::setprecision(3) << last.at("gap").as_number() * 100 << "%"
           << std::setprecision(6);
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

/// Health block: sketch quantile table (each sketch's max is its
/// watermark, each figure in its name's unit) and the SLO breach list.
void render_health(const JsonValue& doc, std::ostream& os) {
  const JsonValue* health = find_path(doc, {"health"});
  if (health == nullptr || !health->is_object()) return;
  const JsonValue* enabled = find_path(*health, {"enabled"});
  if (enabled != nullptr && enabled->is_bool() && !enabled->as_bool()) {
    os << "health: telemetry disabled\n";
    return;
  }
  os << "health: "
     << (number_at(*health, {"status"}, 0) != 0 ? "BREACHED" : "OK");
  if (const JsonValue* dropped = find_path(*health, {"recorder", "dropped"})) {
    os << ", " << number_text(*dropped) << " recorder drop(s)";
  }
  os << "\n";
  const JsonValue* sketches = find_path(*health, {"sketches"});
  if (sketches != nullptr && sketches->is_object() && sketches->size() > 0) {
    os << "  " << std::left << std::setw(36) << "sketch" << std::right
       << std::setw(10) << "count" << std::setw(12) << "p50" << std::setw(12)
       << "p95" << std::setw(12) << "p99" << std::setw(12) << "max" << "\n";
    for (const auto& [name, sketch] : sketches->members()) {
      if (!sketch.is_object()) continue;
      const auto fmt = [&](const char* field) -> std::string {
        const double v = number_at(sketch, {field}, kNan);
        return std::isnan(v) ? "-" : format_metric(name, v);
      };
      os << "  " << std::left << std::setw(36) << name << std::right
         << std::setw(10)
         << (sketch.has("count") ? number_text(sketch.at("count")) : "-")
         << std::setw(12) << fmt("p50") << std::setw(12) << fmt("p95")
         << std::setw(12) << fmt("p99") << std::setw(12) << fmt("max")
         << "\n";
    }
  }
  const JsonValue* breaches = find_path(*health, {"breaches"});
  if (breaches != nullptr && breaches->is_array() && breaches->size() > 0) {
    os << "  SLO breaches (" << breaches->size() << "):\n";
    const std::size_t top = std::min<std::size_t>(breaches->size(), 8);
    for (std::size_t i = 0; i < top; ++i) {
      const JsonValue& b = breaches->at(i);
      os << "    epoch " << number_text(b.at("epoch")) << "  "
         << b.at("slo").as_string() << "  observed "
         << format_quantity(b.at("value").as_number()) << "  budget "
         << format_quantity(b.at("budget").as_number()) << "\n";
    }
    if (breaches->size() > top) {
      os << "    ... " << breaches->size() - top << " more\n";
    }
  }
}

void render_memory(const JsonValue& doc, std::ostream& os) {
  const JsonValue* block = find_path(doc, {"memory"});
  if (block == nullptr || !block->is_object()) return;
  os << "memory:";
  const double peak = number_at(*block, {"peak_rss_bytes"}, kNan);
  if (!std::isnan(peak)) os << " peak rss " << format_quantity(peak) << "B";
  const double current = number_at(*block, {"current_rss_bytes"}, kNan);
  if (!std::isnan(current)) {
    os << "  (current " << format_quantity(current) << "B)";
  }
  os << "\n\n";
}

void render_attribution(const JsonValue& doc, std::ostream& os) {
  const JsonValue* links = find_path(doc, {"attribution", "links"});
  if (links == nullptr) return;
  os << "bottleneck links (top " << links->size() << "):\n";
  for (std::size_t i = 0; i < links->size(); ++i) {
    const JsonValue& link = links->at(i);
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

void render_events(const JsonValue& doc, std::ostream& os) {
  const JsonValue* block = find_path(doc, {"events"});
  const JsonValue* events = find_path(doc, {"events", "events"});
  if (events == nullptr) return;
  std::map<std::string, std::size_t> by_category;
  for (std::size_t i = 0; i < events->size(); ++i) {
    by_category[events->at(i).at("category").as_string()] += 1;
  }
  os << "flight recorder: " << number_text(block->at("total"))
     << " event(s), " << number_text(block->at("dropped")) << " dropped\n";
  for (const auto& [category, count] : by_category) {
    os << "  " << std::left << std::setw(32) << category << std::right
       << std::setw(8) << count << "\n";
  }
  const std::size_t tail = std::min<std::size_t>(events->size(), 5);
  if (tail > 0) os << "last " << tail << " event(s):\n";
  for (std::size_t i = events->size() - tail; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    os << "  [" << std::fixed << std::setprecision(3)
       << event.at("t").as_number() << std::defaultfloat
       << std::setprecision(6) << "s] " << event.at("category").as_string();
    for (const auto& [key, value] : event.at("fields").members()) {
      os << " " << key << "=" << number_text(value);
    }
    os << "\n";
  }
}

/// Fixed-precision number for the quality table; non-finite → "-".
std::string quality_cell(double v, int precision) {
  if (!std::isfinite(v)) return "-";
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void render_quality(const JsonValue& doc, std::ostream& os) {
  const JsonValue* q = find_path(doc, {"quality"});
  if (q == nullptr || !q->is_object()) return;
  const auto epochs = static_cast<std::size_t>(number_at(*q, {"epochs"}, 0));
  os << "observatory: " << epochs << " epochs, shadow every "
     << static_cast<long long>(number_at(*q, {"shadow_every"}, 0))
     << " (eps " << number_at(*q, {"shadow_epsilon"}, 0) << "), "
     << static_cast<long long>(number_at(*q, {"shadow_solves"}, 0))
     << " shadow solves\n";

  // Map sampled epoch -> index into the regret arrays.
  const JsonValue* regret = find_path(*q, {"regret"});
  std::map<std::size_t, std::size_t> sample_at;
  const JsonValue* sampled = find_path(*q, {"regret", "epochs"});
  if (sampled != nullptr && sampled->is_array()) {
    for (std::size_t i = 0; i < sampled->size(); ++i) {
      if (sampled->at(i).is_number()) {
        sample_at[static_cast<std::size_t>(sampled->at(i).as_number())] = i;
      }
    }
  }
  if (sample_at.empty()) {
    os << "regret: no shadow samples\n";
  } else {
    os << "regret: " << sample_at.size() << " samples";
    for (const char* field : {"p50", "p95", "max"}) {
      os << "  " << field << " "
         << quality_cell(number_at(*regret, {field}, kNan), 4);
    }
    os << "  (" << static_cast<long long>(number_at(*regret, {"truncated"}, 0))
       << " truncated)\n";
  }

  const JsonValue* predictor = find_path(*q, {"predictor"});
  if (predictor != nullptr) {
    const auto scored =
        static_cast<long long>(number_at(*predictor, {"scored_epochs"}, 0));
    if (scored == 0) {
      os << "predictor: no scored epochs\n";
    } else {
      os << "predictor: " << scored << "/" << epochs
         << " epochs scored  mape mean "
         << quality_cell(number_at(*predictor, {"mape_mean"}, 0), 4)
         << "  max " << quality_cell(number_at(*predictor, {"mape_max"}, 0), 4)
         << "\n";
    }
  }
  const JsonValue* churn = find_path(*q, {"churn"});
  if (churn != nullptr) {
    os << "churn: total top-path flips "
       << static_cast<long long>(
              number_at(*churn, {"total_top_path_flips"}, 0))
       << "\n";
  }
  if (epochs == 0) return;

  // Entry i of the series `key` under `block`, or null; value() reads it
  // as a number, NaN when it is none.
  const auto entry = [](const JsonValue* block, std::string_view key,
                        std::size_t i) -> const JsonValue* {
    const JsonValue* series =
        block != nullptr ? find_path(*block, {key}) : nullptr;
    return series != nullptr && series->is_array() && i < series->size()
               ? &series->at(i)
               : nullptr;
  };
  const auto value = [&](const JsonValue* block, std::string_view key,
                         std::size_t i) {
    const JsonValue* v = entry(block, key, i);
    return v != nullptr && v->is_number() ? v->as_number() : kNan;
  };
  os << "\n"
     << std::left << std::setw(7) << "epoch" << std::right << std::setw(9)
     << "regret" << std::setw(11) << "achieved" << std::setw(11) << "opt"
     << std::setw(9) << "mape" << std::setw(13) << "worst_pair" << std::setw(9)
     << "hamming" << std::setw(10) << "w_l1" << std::setw(7) << "flips"
     << "\n";
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto sample = sample_at.find(epoch);
    const auto sampled_cell = [&](std::string_view key) {
      return sample == sample_at.end()
                 ? std::string("-")
                 : quality_cell(value(regret, key, sample->second), 4);
    };
    const double mape = value(predictor, "mape", epoch);
    std::string pair_cell = "-";
    const JsonValue* pair = entry(predictor, "worst_pair", epoch);
    if (mape >= 0 && pair != nullptr && pair->is_array() &&
        pair->size() == 2 && pair->at(0).is_number() &&
        pair->at(1).is_number()) {
      std::ostringstream ps;
      ps << static_cast<long long>(pair->at(0).as_number()) << "->"
         << static_cast<long long>(pair->at(1).as_number());
      pair_cell = ps.str();
    }
    os << std::left << std::setw(7) << epoch << std::right << std::setw(9)
       << sampled_cell("ratio") << std::setw(11) << sampled_cell("achieved")
       << std::setw(11) << sampled_cell("shadow_opt") << std::setw(9)
       << (mape >= 0 ? quality_cell(mape, 4) : "-") << std::setw(13)
       << pair_cell << std::setw(9)
       << quality_cell(value(churn, "mask_hamming", epoch), 0)
       << std::setw(10) << quality_cell(value(churn, "weight_l1", epoch), 3)
       << std::setw(7)
       << quality_cell(value(churn, "top_path_flips", epoch), 0) << "\n";
  }
}

}  // namespace

void render_artifact(const JsonValue& doc, std::ostream& os) {
  SOR_CHECK_MSG(doc.is_object() && doc.has("experiment"),
                "document is not a BENCH artifact (no \"experiment\" key)");
  render_header(doc, os);
  render_table(doc, os);
  render_cost(doc, os);
  render_convergence(doc, os);
  render_health(doc, os);
  render_memory(doc, os);
  render_attribution(doc, os);
  render_events(doc, os);
  render_quality(doc, os);
}

}  // namespace sor::telemetry
