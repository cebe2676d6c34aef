// Unit tests for src/telemetry: registry metrics under concurrency, span
// tree nesting (including across thread-pool workers) and the seconds
// sketch every span feeds, JSON round-trip, and the SOR_TELEMETRY kill
// switch.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/router.hpp"
#include "demand/demand.hpp"
#include "graph/generators.hpp"
#include "oblivious/shortest_path.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace sor {
namespace {

using telemetry::JsonValue;

// Spans open elsewhere in the test binary would make reset_spans unsafe;
// these tests only run spans they open themselves.

// Recording tests must work regardless of the SOR_TELEMETRY environment
// the suite runs under.
struct ScopedEnable {
  explicit ScopedEnable(bool on = true) : previous(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~ScopedEnable() { telemetry::set_enabled(previous); }
  bool previous;
};

const telemetry::SpanSnapshot* find_span(
    const std::vector<telemetry::SpanSnapshot>& spans,
    const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(TelemetryCounter, ConcurrentIncrementsLandExactly) {
  const ScopedEnable enable;
  auto& counter =
      telemetry::Registry::global().counter("test/concurrent_counter");
  counter.reset();
  const std::size_t n = 20000;
  parallel_for(n, [&](std::size_t) { counter.add(); });
  EXPECT_EQ(counter.value(), n);

  counter.reset();
  parallel_for(n, [&](std::size_t i) { counter.add(i % 3); });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) expected += i % 3;
  EXPECT_EQ(counter.value(), expected);
}

TEST(TelemetryGauge, LastWriteWins) {
  const ScopedEnable enable;
  auto& gauge = telemetry::Registry::global().gauge("test/gauge");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.25);
}

TEST(TelemetrySpan, NestsAndAggregates) {
  const ScopedEnable enable;
  telemetry::reset_spans();
  {
    SOR_SPAN("test/outer");
    for (int i = 0; i < 3; ++i) {
      SOR_SPAN("test/inner");
    }
    { SOR_SPAN("test/other"); }
  }
  { SOR_SPAN("test/outer"); }  // second invocation aggregates

  const auto spans = telemetry::snapshot_spans();
  const auto* outer = find_span(spans, "test/outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2u);
  ASSERT_EQ(outer->children.size(), 2u);
  const auto* inner = find_span(outer->children, "test/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 3u);
  EXPECT_GE(outer->seconds, 0.0);

  const std::string text = telemetry::span_tree_text();
  EXPECT_NE(text.find("test/outer"), std::string::npos);
  EXPECT_NE(text.find("test/inner"), std::string::npos);
  telemetry::reset_spans();
}

TEST(TelemetrySpan, PropagatesAcrossPoolWorkers) {
  const ScopedEnable enable;
  telemetry::reset_spans();
  const std::size_t n = 64;
  {
    SOR_SPAN("test/parallel_outer");
    parallel_for(n, [&](std::size_t) { SOR_SPAN("test/parallel_inner"); });
  }
  const auto spans = telemetry::snapshot_spans();
  const auto* outer = find_span(spans, "test/parallel_outer");
  ASSERT_NE(outer, nullptr);
  // The inner span must appear as a child of the outer one, never as a
  // top-level root, regardless of which pool thread ran it.
  EXPECT_EQ(find_span(spans, "test/parallel_inner"), nullptr);
  const auto* inner = find_span(outer->children, "test/parallel_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, n);
  telemetry::reset_spans();
}

// Spans are the one timer: every invocation also lands in the registry
// sketch "<name>_seconds", so one name opened under two parents feeds
// one sketch, and the profile's per-span row sums both nodes.
TEST(TelemetrySpan, SameNameUnderTwoParentsFeedsOneSketch) {
  const ScopedEnable enable;
  telemetry::reset_spans();
  auto& sketch = telemetry::Registry::global().sketch("test/shared_seconds");
  sketch.reset();
  {
    SOR_SPAN("test/parent_a");
    for (int i = 0; i < 2; ++i) {
      SOR_SPAN("test/shared");
    }
  }
  {
    SOR_SPAN("test/parent_b");
    { SOR_SPAN("test/shared"); }
  }
  const auto spans = telemetry::snapshot_spans();
  const auto* under_a =
      find_span(find_span(spans, "test/parent_a")->children, "test/shared");
  const auto* under_b =
      find_span(find_span(spans, "test/parent_b")->children, "test/shared");
  ASSERT_NE(under_a, nullptr);
  ASSERT_NE(under_b, nullptr);
  EXPECT_EQ(under_a->count, 2u);
  EXPECT_EQ(under_b->count, 1u);
  const telemetry::SketchSnapshot snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum, under_a->seconds + under_b->seconds, 1e-12);

  JsonValue doc = JsonValue::object();
  doc.set("experiment", "T");
  doc.set("spans", telemetry::spans_to_json(spans));
  const auto totals = telemetry::span_totals(doc);
  ASSERT_EQ(totals.count("test/shared"), 1u);
  EXPECT_DOUBLE_EQ(totals.at("test/shared").calls, 3.0);
  EXPECT_DOUBLE_EQ(totals.at("test/shared").seconds,
                   under_a->seconds + under_b->seconds);
  std::ostringstream profile;
  telemetry::render_artifact_profile(doc, profile);
  const std::string text = profile.str();
  const std::size_t row = text.find("\n  test/shared ");
  ASSERT_NE(row, std::string::npos) << text;
  const std::string line =
      text.substr(row + 1, text.find('\n', row + 1) - row - 1);
  // Calls column: the two nodes' counts added together.
  std::istringstream fields(line);
  std::string name;
  std::string calls;
  fields >> name >> calls;
  EXPECT_EQ(calls, "3") << line;
}

TEST(TelemetryJson, RoundTripsThroughParser) {
  JsonValue doc = JsonValue::object();
  doc.set("string", "hello \"world\"\n");
  doc.set("int", 42);
  doc.set("float", 2.625);
  doc.set("negative", -17.5);
  doc.set("yes", true);
  doc.set("no", false);
  doc.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push(1);
  arr.push("two");
  arr.push(JsonValue::array());
  doc.set("arr", std::move(arr));
  JsonValue nested = JsonValue::object();
  nested.set("deep", 1e-9);
  doc.set("nested", std::move(nested));

  for (int indent : {0, 2}) {
    const JsonValue parsed = JsonValue::parse(doc.dump(indent));
    EXPECT_EQ(parsed.at("string").as_string(), "hello \"world\"\n");
    EXPECT_DOUBLE_EQ(parsed.at("int").as_number(), 42.0);
    EXPECT_DOUBLE_EQ(parsed.at("float").as_number(), 2.625);
    EXPECT_DOUBLE_EQ(parsed.at("negative").as_number(), -17.5);
    EXPECT_TRUE(parsed.at("yes").as_bool());
    EXPECT_FALSE(parsed.at("no").as_bool());
    EXPECT_TRUE(parsed.at("nothing").is_null());
    EXPECT_EQ(parsed.at("arr").size(), 3u);
    EXPECT_EQ(parsed.at("arr").at(std::size_t{1}).as_string(), "two");
    EXPECT_DOUBLE_EQ(parsed.at("nested").at("deep").as_number(), 1e-9);
  }
}

TEST(TelemetryJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), CheckError);
  EXPECT_THROW(JsonValue::parse("{"), CheckError);
  EXPECT_THROW(JsonValue::parse("[1,]"), CheckError);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1,}"), CheckError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), CheckError);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), CheckError);
  EXPECT_THROW(JsonValue::parse("nul"), CheckError);
  // Nesting deep enough to overflow a recursive parser's stack is
  // rejected with a clean error instead.
  EXPECT_THROW(JsonValue::parse(std::string(100000, '[') +
                                std::string(100000, ']')),
               CheckError);
}

TEST(TelemetryJson, ParserDecodesEscapes) {
  const JsonValue v = JsonValue::parse(R"("a\tbA\\")");
  EXPECT_EQ(v.as_string(), "a\tbA\\");
}

TEST(TelemetryExport, RegistrySnapshotHasExpectedShape) {
  const ScopedEnable enable;
  auto& registry = telemetry::Registry::global();
  registry.counter("test/export_counter").add(7);
  registry.gauge("test/export_gauge").set(1.5);
  SOR_SKETCH("test/export_sketch").observe(3.0);

  const JsonValue doc = telemetry::registry_to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_GE(doc.at("counters").at("test/export_counter").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("test/export_gauge").as_number(), 1.5);
  // Counters and gauges only: sketches export in the health block.
  EXPECT_EQ(doc.members().size(), 2u);
  // The exporter's output must itself round-trip.
  const JsonValue reparsed = JsonValue::parse(doc.dump(2));
  EXPECT_TRUE(reparsed.at("gauges").has("test/export_gauge"));
}

TEST(TelemetryKillSwitch, DisabledRecordsNothing) {
  const ScopedEnable enable;
  auto& counter =
      telemetry::Registry::global().counter("test/killswitch_counter");
  auto& gauge = telemetry::Registry::global().gauge("test/killswitch_gauge");
  auto& sketch = SOR_SKETCH("test/killswitch_sketch");
  counter.reset();
  gauge.set(3.0);
  sketch.reset();
  telemetry::reset_spans();

  telemetry::set_enabled(false);
  counter.add(5);
  gauge.set(99.0);
  sketch.observe(0.5);
  { SOR_SPAN("test/killswitch_span"); }
  telemetry::set_enabled(true);

  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(find_span(telemetry::snapshot_spans(), "test/killswitch_span"),
            nullptr);
}

TEST(TelemetryKillSwitch, SolverResultsUnchangedWhenDisabled) {
  const ScopedEnable enable;
  const Graph g = make_grid(4, 4);
  const ShortestPathRouting routing(g);
  PathSystem ps;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    for (Vertex t = s + 1; t < g.num_vertices(); ++t) {
      Rng rng(7);
      ps.add(routing.sample_path(s, t, rng));
    }
  }
  Demand d;
  d.add(0, 15, 4.0);
  d.add(3, 12, 4.0);
  const SemiObliviousRouter router(g, ps);

  const double with_telemetry = router.route_fractional(d).congestion;
  telemetry::set_enabled(false);
  const double without_telemetry = router.route_fractional(d).congestion;
  telemetry::set_enabled(true);
  EXPECT_DOUBLE_EQ(with_telemetry, without_telemetry);
}

TEST(TelemetryRegistry, ConcurrentInterningAndUpdates) {
  const ScopedEnable enable;
  // Threads race both the name→metric interning map and the metric
  // updates themselves (this is the case SOR_SANITIZE=thread watches).
  const std::size_t n = 8000;
  parallel_for(n, [&](std::size_t i) {
    auto& registry = telemetry::Registry::global();
    registry.counter("test/registry_race_" + std::to_string(i % 4)).add();
    registry.gauge("test/registry_race_gauge").set(static_cast<double>(i));
  });
  std::uint64_t total = 0;
  for (const auto& [name, value] : telemetry::Registry::global().counters()) {
    if (name.rfind("test/registry_race_", 0) == 0) total += value;
  }
  EXPECT_GE(total, n);  // >= because other suite runs may share names
}

TEST(Recorder, RecordsEventsInOrderWithFields) {
  const ScopedEnable enable;
  telemetry::Recorder recorder(16);
  recorder.record("cat/a", {{"x", 1.5}, {"label", "first"}});
  recorder.record("cat/b", {{"n", std::uint64_t{7}}});
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].category, "cat/a");
  EXPECT_EQ(events[1].category, "cat/b");
  EXPECT_GE(events[0].seconds, 0.0);
  EXPECT_LE(events[0].seconds, events[1].seconds);
  ASSERT_EQ(events[0].fields.size(), 2u);
  EXPECT_EQ(events[0].fields[0].first, "x");
  EXPECT_DOUBLE_EQ(events[0].fields[0].second.as_number(), 1.5);
  EXPECT_EQ(events[0].fields[1].second.as_string(), "first");
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(Recorder, RingEvictsOldestAndCountsDrops) {
  const ScopedEnable enable;
  telemetry::Recorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.record("evict", {{"i", static_cast<double>(i)}});
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_DOUBLE_EQ(events[k].fields[0].second.as_number(),
                     static_cast<double>(6 + k));  // newest 4, oldest first
  }
}

TEST(Recorder, SetCapacityKeepsNewestInOrder) {
  const ScopedEnable enable;
  telemetry::Recorder recorder(8);
  for (int i = 0; i < 12; ++i) {
    recorder.record("resize", {{"i", static_cast<double>(i)}});
  }
  recorder.set_capacity(3);  // shrink a wrapped ring
  auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].fields[0].second.as_number(), 9.0);
  recorder.set_capacity(6);  // grow again; order must survive
  recorder.record("resize", {{"i", 12.0}});
  events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t k = 0; k + 1 < events.size(); ++k) {
    EXPECT_LT(events[k].fields[0].second.as_number(),
              events[k + 1].fields[0].second.as_number());
  }
}

TEST(Recorder, KillSwitchSuppressesRecording) {
  const ScopedEnable enable;
  telemetry::Recorder recorder(8);
  telemetry::set_enabled(false);
  recorder.record("off", {{"x", 1.0}});
  telemetry::set_enabled(true);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(Recorder, ConcurrentRecordsAreAllCounted) {
  const ScopedEnable enable;
  telemetry::Recorder recorder(256);
  const std::size_t n = 4000;
  parallel_for(n, [&](std::size_t i) {
    recorder.record("race", {{"i", static_cast<double>(i)}});
  });
  EXPECT_EQ(recorder.recorded(), n);
  EXPECT_EQ(recorder.dropped(), n - 256);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 256u);
  for (std::size_t k = 1; k < events.size(); ++k) {
    EXPECT_LE(events[k - 1].seconds, events[k].seconds);
  }
}

TEST(Timeline, DisabledByDefaultRecordsNothing) {
  const ScopedEnable enable;
  telemetry::reset_timeline();
  { SOR_SPAN("test/timeline_off"); }
  EXPECT_TRUE(telemetry::snapshot_timeline().empty());
}

TEST(Timeline, CapturesNestedSpanIntervals) {
  const ScopedEnable enable;
  telemetry::reset_timeline();
  telemetry::set_timeline_enabled(true);
  {
    SOR_SPAN("test/tl_outer");
    { SOR_SPAN("test/tl_inner"); }
  }
  telemetry::set_timeline_enabled(false);
  const auto events = telemetry::snapshot_timeline();
  telemetry::reset_timeline();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: inner closes first.
  EXPECT_EQ(events[0].name, "test/tl_inner");
  EXPECT_EQ(events[1].name, "test/tl_outer");
  for (const auto& e : events) {
    EXPECT_GE(e.start_seconds, 0.0);
    EXPECT_GE(e.duration_seconds, 0.0);
  }
  // The inner interval nests inside the outer one (small slack for the
  // clock reads around the span boundaries).
  EXPECT_LE(events[1].start_seconds, events[0].start_seconds + 1e-9);
  EXPECT_GE(events[1].start_seconds + events[1].duration_seconds,
            events[0].start_seconds + events[0].duration_seconds - 1e-9);
}

TEST(Timeline, CapacityDropsNewestAndCounts) {
  const ScopedEnable enable;
  telemetry::reset_timeline();
  telemetry::set_timeline_capacity(2);
  telemetry::set_timeline_enabled(true);
  { SOR_SPAN("test/tl_1"); }
  { SOR_SPAN("test/tl_2"); }
  { SOR_SPAN("test/tl_3"); }
  { SOR_SPAN("test/tl_4"); }
  telemetry::set_timeline_enabled(false);
  const auto events = telemetry::snapshot_timeline();
  const std::uint64_t dropped = telemetry::timeline_dropped();
  telemetry::reset_timeline();
  telemetry::set_timeline_capacity(65536);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "test/tl_1");  // drop-newest keeps the head
  EXPECT_EQ(events[1].name, "test/tl_2");
  EXPECT_EQ(dropped, 2u);
}

TEST(TelemetryExport, ChromeTraceMergesAndSortsEvents) {
  std::vector<telemetry::TimelineEvent> timeline;
  timeline.push_back({"span_late", 0, 0.002, 0.001});
  timeline.push_back({"span_early", 1, 0.0005, 0.0001});
  std::vector<telemetry::RecorderEvent> events;
  events.push_back({0.001, "marker", {{"k", JsonValue(3.0)}}});
  const JsonValue doc = telemetry::chrome_trace_json(timeline, events);
  ASSERT_TRUE(doc.has("traceEvents"));
  const JsonValue& trace = doc.at("traceEvents");
  ASSERT_EQ(trace.size(), 3u);
  // Sorted by microsecond timestamp: early span, marker, late span.
  EXPECT_EQ(trace.at(0).at("name").as_string(), "span_early");
  EXPECT_EQ(trace.at(1).at("name").as_string(), "marker");
  EXPECT_EQ(trace.at(2).at("name").as_string(), "span_late");
  EXPECT_EQ(trace.at(0).at("ph").as_string(), "X");
  EXPECT_EQ(trace.at(1).at("ph").as_string(), "i");
  EXPECT_DOUBLE_EQ(trace.at(0).at("dur").as_number(), 100.0);
  EXPECT_DOUBLE_EQ(trace.at(1).at("args").at("k").as_number(), 3.0);
}

}  // namespace
}  // namespace sor
