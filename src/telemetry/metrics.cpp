#include "telemetry/metrics.hpp"

#include <cctype>
#include <ostream>
#include <sstream>

#include "telemetry/memory.hpp"
#include "telemetry/recorder.hpp"

namespace sor::telemetry {

namespace {

JsonValue sketch_json(const SketchSnapshot& snap) {
  JsonValue s = JsonValue::object();
  const StatsSummary summary = Sketch::summarize_snapshot(snap);
  s.set("count", static_cast<std::uint64_t>(snap.count));
  s.set("sum", snap.sum);
  s.set("min", snap.min);
  s.set("max", snap.max);
  s.set("p50", summary.p50);
  s.set("p95", summary.p95);
  s.set("p99", summary.p99);
  JsonValue buckets = JsonValue::array();
  for (const auto& [index, count] : snap.buckets) {
    JsonValue pair = JsonValue::array();
    pair.push(static_cast<std::uint64_t>(index));
    pair.push(static_cast<std::uint64_t>(count));
    buckets.push(std::move(pair));
  }
  s.set("buckets", std::move(buckets));
  return s;
}

JsonValue breach_json(const SloBreach& breach) {
  JsonValue b = JsonValue::object();
  b.set("slo", breach.slo);
  b.set("epoch", static_cast<std::uint64_t>(breach.epoch));
  b.set("value", breach.value);
  b.set("budget", breach.budget);
  return b;
}

}  // namespace

JsonValue health_to_json() {
  const Registry& registry = Registry::global();
  JsonValue doc = JsonValue::object();
  doc.set("enabled", enabled());

  JsonValue recorder = JsonValue::object();
  recorder.set("recorded", Recorder::global().recorded());
  recorder.set("dropped", Recorder::global().dropped());
  doc.set("recorder", std::move(recorder));

  JsonValue sketches = JsonValue::object();
  for (const auto& [name, snap] : registry.sketches()) {
    sketches.set(name, sketch_json(snap));
  }
  doc.set("sketches", std::move(sketches));

  JsonValue breaches = JsonValue::array();
  for (const SloBreach& breach : registry.breaches()) {
    breaches.push(breach_json(breach));
  }
  doc.set("breaches", std::move(breaches));
  doc.set("status", registry.health_status());
  return doc;
}

JsonValue epoch_health_json(std::uint64_t epoch) {
  const Registry& registry = Registry::global();
  JsonValue doc = JsonValue::object();
  doc.set("epoch", static_cast<std::uint64_t>(epoch));

  JsonValue sketches = JsonValue::object();
  for (const auto& [name, snap] : registry.sketches()) {
    const StatsSummary s = Sketch::summarize_snapshot(snap);
    JsonValue row = JsonValue::object();
    row.set("count", static_cast<std::uint64_t>(s.count));
    row.set("p50", s.p50);
    row.set("p95", s.p95);
    row.set("p99", s.p99);
    row.set("max", s.max);
    sketches.set(name, std::move(row));
  }
  doc.set("sketches", std::move(sketches));
  return doc;
}

namespace {

std::string prometheus_name(std::string_view name) {
  std::string out = "sor_";
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(u) != 0 || c == '_' || c == ':' ? c : '_');
  }
  return out;
}

void prometheus_value(std::ostream& os, double v) {
  // Prometheus accepts NaN/+Inf/-Inf spelled out.
  std::ostringstream text;
  text.precision(17);
  text << v;
  os << text.str();
}

void prometheus_help(std::ostream& os, const std::string& prom,
                     std::string_view raw_name, const char* what) {
  os << "# HELP " << prom << " " << what << " for telemetry key "
     << prometheus_escape_help(raw_name) << "\n";
}

}  // namespace

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string prometheus_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void write_prometheus(std::ostream& os) {
  const Registry& registry = Registry::global();
  for (const auto& [name, value] : registry.counters()) {
    const std::string prom = prometheus_name(name);
    prometheus_help(os, prom, name, "run counter");
    os << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string prom = prometheus_name(name);
    prometheus_help(os, prom, name, "gauge");
    os << "# TYPE " << prom << " gauge\n" << prom << " ";
    prometheus_value(os, value);
    os << "\n";
  }
  for (const auto& [name, snap] : registry.sketches()) {
    const std::string prom = prometheus_name(name);
    const StatsSummary s = Sketch::summarize_snapshot(snap);
    prometheus_help(os, prom, name, "quantile sketch");
    os << "# TYPE " << prom << " summary\n";
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", s.p50}, {"0.95", s.p95}, {"0.99", s.p99}};
    for (const auto& [q, value] : quantiles) {
      os << prom << "{quantile=\"" << q << "\"} ";
      prometheus_value(os, value);
      os << "\n";
    }
    os << prom << "_sum ";
    prometheus_value(os, snap.sum);
    os << "\n" << prom << "_count " << snap.count << "\n";
  }
  const MemoryUsage usage = sample_memory_usage();
  os << "# HELP sor_memory_rss_bytes process resident set size\n"
     << "# TYPE sor_memory_rss_bytes gauge\n"
     << "sor_memory_rss_bytes{kind=\"current\"} " << usage.current_rss_bytes
     << "\n"
     << "sor_memory_rss_bytes{kind=\"peak\"} " << usage.peak_rss_bytes << "\n";
  const auto figures = MemoryAccountant::global().figures();
  if (!figures.empty()) {
    os << "# HELP sor_memory_live_bytes attributed live bytes by subsystem\n"
       << "# TYPE sor_memory_live_bytes gauge\n";
    for (const auto& [subsystem, fig] : figures) {
      os << "sor_memory_live_bytes{subsystem=\""
         << prometheus_escape_label(subsystem) << "\"} " << fig.live_bytes
         << "\n";
    }
    os << "# HELP sor_memory_high_water_bytes attributed high-water bytes by "
          "subsystem\n"
       << "# TYPE sor_memory_high_water_bytes gauge\n";
    for (const auto& [subsystem, fig] : figures) {
      os << "sor_memory_high_water_bytes{subsystem=\""
         << prometheus_escape_label(subsystem) << "\"} "
         << fig.high_water_bytes << "\n";
    }
  }
}

std::string prometheus_text() {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

}  // namespace sor::telemetry
