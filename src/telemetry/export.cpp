#include "telemetry/export.hpp"

#include <algorithm>

namespace sor::telemetry {

namespace {

JsonValue span_to_json(const SpanSnapshot& span) {
  JsonValue node = JsonValue::object();
  node.set("name", span.name);
  node.set("count", span.count);
  node.set("seconds", span.seconds);
  JsonValue children = JsonValue::array();
  for (const SpanSnapshot& child : span.children) {
    children.push(span_to_json(child));
  }
  node.set("children", std::move(children));
  return node;
}

}  // namespace

JsonValue registry_to_json(const Registry& registry) {
  JsonValue root = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : registry.counters()) {
    counters.set(name, value);
  }
  root.set("counters", std::move(counters));
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : registry.gauges()) {
    gauges.set(name, value);
  }
  root.set("gauges", std::move(gauges));
  return root;
}

JsonValue spans_to_json(const std::vector<SpanSnapshot>& spans) {
  JsonValue arr = JsonValue::array();
  for (const SpanSnapshot& span : spans) arr.push(span_to_json(span));
  return arr;
}

JsonValue spans_to_json() { return spans_to_json(snapshot_spans()); }

JsonValue convergence_to_json(const ConvergenceCollector& collector) {
  JsonValue doc = JsonValue::object();
  doc.set("capacity", static_cast<std::uint64_t>(collector.capacity()));
  doc.set("dropped", collector.dropped());
  JsonValue traces = JsonValue::array();
  for (const ConvergenceTrace& trace : collector.snapshot()) {
    JsonValue t = JsonValue::object();
    t.set("solver", trace.solver);
    t.set("label", trace.label);
    t.set("iterations", trace.iterations);
    t.set("max_points", static_cast<std::uint64_t>(trace.max_points));
    t.set("truncated", trace.truncated);
    JsonValue counters = JsonValue::object();
    for (const auto& [key, value] : trace.counters) counters.set(key, value);
    t.set("counters", std::move(counters));
    JsonValue points = JsonValue::array();
    for (const ConvergencePoint& point : trace.points) {
      JsonValue p = JsonValue::object();
      p.set("iteration", point.iteration);
      p.set("t", point.seconds);
      p.set("objective", point.objective);
      p.set("bound", point.bound);
      p.set("gap", point.gap);
      points.push(std::move(p));
    }
    t.set("points", std::move(points));
    traces.push(std::move(t));
  }
  doc.set("traces", std::move(traces));
  return doc;
}

JsonValue recorder_to_json(const Recorder& recorder) {
  JsonValue doc = JsonValue::object();
  doc.set("capacity", static_cast<std::uint64_t>(recorder.capacity()));
  doc.set("dropped", recorder.dropped());
  doc.set("total", recorder.recorded());
  JsonValue events = JsonValue::array();
  for (const RecorderEvent& event : recorder.snapshot()) {
    JsonValue e = JsonValue::object();
    e.set("t", event.seconds);
    e.set("category", event.category);
    JsonValue fields = JsonValue::object();
    for (const auto& [key, value] : event.fields) fields.set(key, value);
    e.set("fields", std::move(fields));
    events.push(std::move(e));
  }
  doc.set("events", std::move(events));
  return doc;
}

JsonValue chrome_trace_json(const std::vector<TimelineEvent>& timeline,
                            const std::vector<RecorderEvent>& events,
                            const std::vector<ConvergenceTrace>& traces) {
  // Build (ts_us, json) pairs so the merged stream can be sorted once;
  // chrome://tracing tolerates unsorted input but the schema checker (and
  // humans reading the raw file) get monotone timestamps.
  std::vector<std::pair<double, JsonValue>> entries;
  entries.reserve(timeline.size() + events.size());
  for (const TimelineEvent& span : timeline) {
    JsonValue e = JsonValue::object();
    e.set("name", span.name);
    e.set("cat", "span");
    e.set("ph", "X");
    e.set("ts", span.start_seconds * 1e6);
    e.set("dur", span.duration_seconds * 1e6);
    e.set("pid", 1);
    e.set("tid", static_cast<std::uint64_t>(span.thread));
    entries.emplace_back(span.start_seconds * 1e6, std::move(e));
  }
  for (const RecorderEvent& event : events) {
    JsonValue e = JsonValue::object();
    e.set("name", event.category);
    e.set("cat", "recorder");
    e.set("ph", "i");
    e.set("ts", event.seconds * 1e6);
    e.set("pid", 1);
    e.set("tid", 0);
    e.set("s", "p");  // process-scoped instant marker
    JsonValue args = JsonValue::object();
    for (const auto& [key, value] : event.fields) args.set(key, value);
    e.set("args", std::move(args));
    entries.emplace_back(event.seconds * 1e6, std::move(e));
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const ConvergenceTrace& trace = traces[i];
    // One counter track per trace; the index suffix keeps repeated solves
    // of the same solver/label on separate tracks.
    std::string track = "convergence/" + trace.solver;
    if (!trace.label.empty()) track += "/" + trace.label;
    track += "#";
    track += std::to_string(i);
    for (const ConvergencePoint& point : trace.points) {
      JsonValue e = JsonValue::object();
      e.set("name", track);
      e.set("cat", "convergence");
      e.set("ph", "C");
      e.set("ts", point.seconds * 1e6);
      e.set("pid", 1);
      e.set("tid", 0);
      JsonValue args = JsonValue::object();
      args.set("objective", point.objective);
      args.set("bound", point.bound);
      e.set("args", std::move(args));
      entries.emplace_back(point.seconds * 1e6, std::move(e));
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  JsonValue trace_events = JsonValue::array();
  for (auto& [ts, e] : entries) trace_events.push(std::move(e));
  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

JsonValue chrome_trace_json() {
  return chrome_trace_json(snapshot_timeline(), Recorder::global().snapshot(),
                           ConvergenceCollector::global().snapshot());
}

}  // namespace sor::telemetry
