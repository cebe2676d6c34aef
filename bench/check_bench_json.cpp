// Validates a BENCH_<id>.json artifact against the schema documented in
// EXPERIMENTS.md. Exits 0 if the document parses and every block has the
// right shape; prints the first violation and exits 1 otherwise (a value
// of the wrong kind deep inside a block included). One schema is
// accepted, telemetry::kArtifactSchemaVersion (v11): an older artifact
// exits 1 ("written by an old bench build"), and one stamped NEWER than
// this checker knows exits with the dedicated code 3: "rebuild the
// checker", not "the artifact is broken". Usage errors exit 2.
//
// Usage: check_bench_json <path/to/BENCH_E1.json>
//        check_bench_json --chrome-trace <path/to/trace.json>
//        check_bench_json --require-cache-hits <path/to/BENCH_E1.json>
//        check_bench_json --compare-tables <a.json> <b.json>
//
// Every block's keys and their JSON kinds are declared once, in kShapes;
// one walker checks presence, kind and a closed key set from it, so a
// key v11 does not define anywhere is drift from the version stamp. The
// invariants no key table can state (sort orders, sums, envelopes, series
// lengths, the per-experiment requirements) follow as code.
//
// The --chrome-trace mode validates a Chrome trace-event document (as
// written by `sor_cli --trace-out`): a traceEvents array whose entries
// carry non-negative, non-decreasing "ts" values and, for "X" events,
// non-negative durations.
//
// --require-cache-hits runs the full schema check and additionally fails
// unless the "cache" block reports at least one artifact-cache hit
// (memory or disk) — the warm half of the cold/warm fixture chain.
//
// --compare-tables asserts the "table" blocks of two artifacts of one
// experiment are byte-identical (cached and uncached runs, or two runs of
// one build, must produce bit-identical routing results), except in the
// columns kWallClockColumns declares: those time the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/artifact.hpp"
#include "telemetry/json.hpp"
#include "util/check.hpp"

namespace {

using sor::telemetry::JsonValue;
using sor::telemetry::kArtifactSchemaVersion;
using Kind = JsonValue::Kind;

/// Exit code for artifacts from a NEWER schema than this build knows.
/// Distinct from 1 (schema violation) and 2 (usage) so fixtures and CI
/// can tell "stale checker" apart from "broken artifact".
constexpr int kExitUnknownVersion = 3;

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "schema violation: %s\n", what.c_str());
    std::exit(1);
  }
}

/// One key of a shape: its JSON kind and, for an object or an array of
/// objects, the shape the value or each element has.
struct Key {
  const char* name;
  Kind kind;
  const char* shape = nullptr;
  bool optional = false;
};

constexpr Kind kNum = Kind::kNumber;
constexpr Kind kStr = Kind::kString;
constexpr Kind kBool = Kind::kBool;
constexpr Kind kArr = Kind::kArray;
constexpr Kind kObj = Kind::kObject;

/// Every block and element shape of schema v11, each key once. A shape's
/// key set is closed. Only three maps are free-form: an event's "fields",
/// a trace's "counters", and "health.sketches", whose values are each a
/// "sketch".
const std::map<std::string_view, std::vector<Key>> kShapes = {
    {"artifact",
     {{"schema_version", kNum}, {"experiment", kStr}, {"title", kStr},
      {"claim", kStr}, {"git_describe", kStr}, {"quick_mode", kBool},
      {"wall_seconds", kNum}, {"table", kObj, "table"},
      {"spans", kArr, "span"}, {"events", kObj, "events"},
      {"convergence", kObj, "convergence"}, {"cache", kObj, "cache"},
      {"health", kObj, "health"}, {"provenance", kObj, "provenance"},
      {"memory", kObj, "memory"}, {"quality", kObj, "quality", true},
      {"serving", kObj, "serving", true},
      {"attribution", kObj, "attribution", true},
      {"e16", kObj, "e16", true}}},
    {"table", {{"columns", kArr}, {"rows", kArr}}},
    {"span",
     {{"name", kStr}, {"count", kNum}, {"seconds", kNum},
      {"children", kArr, "span"}}},
    {"events",
     {{"capacity", kNum}, {"dropped", kNum}, {"total", kNum},
      {"events", kArr, "event"}}},
    {"event", {{"t", kNum}, {"category", kStr}, {"fields", kObj}}},
    {"convergence",
     {{"capacity", kNum}, {"dropped", kNum}, {"traces", kArr, "trace"}}},
    {"trace",
     {{"solver", kStr}, {"label", kStr}, {"iterations", kNum},
      {"max_points", kNum}, {"truncated", kBool}, {"counters", kObj},
      {"points", kArr, "point"}}},
    {"point",
     {{"iteration", kNum}, {"t", kNum}, {"objective", kNum},
      {"bound", kNum}, {"gap", kNum}}},
    {"cache",
     {{"enabled", kBool}, {"hits", kNum}, {"misses", kNum},
      {"disk_hits", kNum}, {"puts", kNum}, {"evictions", kNum},
      {"corrupt", kNum}, {"bytes", kNum}, {"entries", kNum}}},
    {"health",
     {{"enabled", kBool}, {"recorder", kObj, "recorder"},
      {"sketches", kObj}, {"breaches", kArr, "breach"}, {"status", kNum}}},
    {"recorder", {{"recorded", kNum}, {"dropped", kNum}}},
    {"sketch",
     {{"count", kNum}, {"sum", kNum}, {"min", kNum}, {"max", kNum},
      {"p50", kNum}, {"p95", kNum}, {"p99", kNum}, {"buckets", kArr}}},
    {"breach",
     {{"slo", kStr}, {"epoch", kNum}, {"value", kNum}, {"budget", kNum}}},
    {"provenance",
     {{"compiler_id", kStr}, {"compiler_version", kStr},
      {"build_type", kStr}, {"sanitize", kStr},
      {"build_fingerprint", kStr}, {"git_describe", kStr},
      {"cxx_flags", kStr}}},
    {"memory", {{"current_rss_bytes", kNum}, {"peak_rss_bytes", kNum}}},
    {"quality",
     {{"shadow_every", kNum}, {"shadow_epsilon", kNum}, {"epochs", kNum},
      {"shadow_solves", kNum}, {"regret", kObj, "regret"},
      {"predictor", kObj, "predictor"}, {"churn", kObj, "churn"}}},
    {"regret",
     {{"epochs", kArr}, {"achieved", kArr}, {"shadow_opt", kArr},
      {"lower_bound", kArr}, {"ratio", kArr}, {"truncated", kNum},
      {"p50", kNum}, {"p95", kNum}, {"max", kNum}}},
    {"predictor",
     {{"mape", kArr}, {"worst_pair_error", kArr}, {"worst_pair", kArr},
      {"scored_epochs", kNum}, {"mape_mean", kNum}, {"mape_max", kNum}}},
    {"churn",
     {{"mask_hamming", kArr}, {"weight_l1", kArr},
      {"top_path_flips", kArr}, {"total_top_path_flips", kNum}}},
    {"serving",
     {{"readers", kNum}, {"epochs", kNum}, {"snapshots_published", kNum},
      {"lookups", kNum}, {"misses", kNum}, {"torn_lookups", kNum},
      {"lookups_per_sec", kNum}, {"p50_us", kNum}, {"p95_us", kNum},
      {"p99_us", kNum}, {"max_us", kNum}, {"updates_enqueued", kNum},
      {"updates_applied", kNum}, {"identity_ok", kBool}}},
    {"attribution",
     {{"top_k", kNum}, {"loaded_links", kNum}, {"max_utilization", kNum},
      {"links", kArr, "link"}}},
    {"link",
     {{"edge", kNum}, {"u", kNum}, {"v", kNum}, {"capacity", kNum},
      {"load", kNum}, {"utilization", kNum},
      {"contributors", kArr, "contributor"}}},
    {"contributor",
     {{"src", kNum}, {"dst", kNum}, {"commodity", kNum},
      {"path_index", kNum}, {"hops", kNum}, {"load", kNum},
      {"share", kNum}}},
    {"e16", {{"epochs", kNum}, {"modes", kObj, "e16 modes"}}},
    {"e16 modes", {{"warm", kObj, "e16 mode"}, {"cold", kObj, "e16 mode"}}},
    {"e16 mode",
     {{"per_epoch_congestion", kArr}, {"per_epoch_churn", kArr},
      {"per_epoch_solve_ms", kArr}, {"total_solve_ms", kNum},
      {"warm_accepts", kNum}}}};

/// JsonValue::Kind names, in the enum's order.
constexpr const char* kKindNames[] = {"null",   "bool",  "number",
                                      "string", "array", "object"};

/// `node[key]`, which must exist and be of `kind`.
const JsonValue& member(const JsonValue& node, const std::string& key,
                        Kind kind, const std::string& where) {
  const std::string path = where.empty() ? key : where + "/" + key;
  require(node.has(key), "missing key \"" + path + "\"");
  const JsonValue& value = node.at(key);
  require(value.kind() == kind,
          "key \"" + path + "\" is not a " +
              kKindNames[static_cast<int>(kind)]);
  return value;
}

/// Checks `node` against `shape`: each key it declares present (unless
/// optional) with its kind, each nested shape in turn, and no key it does
/// not declare.
void check_shape(const JsonValue& node, std::string_view shape,
                 const std::string& where) {
  require(node.is_object(), (where.empty() ? "top level" : where) +
                                std::string(" is not an object"));
  const std::vector<Key>& keys = kShapes.at(shape);
  for (const Key& key : keys) {
    if (key.optional && !node.has(key.name)) continue;
    const JsonValue& value = member(node, key.name, key.kind, where);
    if (key.shape == nullptr) continue;
    const std::string path = where.empty() ? key.name : where + "/" + key.name;
    if (!value.is_array()) {
      check_shape(value, key.shape, path);
      continue;
    }
    for (std::size_t i = 0; i < value.size(); ++i) {
      check_shape(value.at(i), key.shape,
                  path + "[" + std::to_string(i) + "]");
    }
  }
  for (const auto& [name, value] : node.members()) {
    require(std::any_of(keys.begin(), keys.end(),
                        [&](const Key& key) { return name == key.name; }),
            (where.empty() ? "the artifact" : where) + " carries \"" + name +
                "\", which schema v11 does not define");
  }
}

/// Span integrity beyond the shape: a span that was opened but never
/// closed (or closed twice) exports with count < 1, and a name can only
/// appear once among its siblings — the exporter aggregates same-name
/// children into one node, so a duplicate means two nodes were stitched
/// under mismatched parents.
void check_span_forest(const JsonValue& nodes, const std::string& where) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const JsonValue& node = nodes.at(i);
    const std::string node_where = where + "[" + std::to_string(i) + "]";
    const std::string& name = node.at("name").as_string();
    require(node.at("count").as_number() >= 1,
            node_where + " has count < 1 (span opened but never closed)");
    require(node.at("seconds").as_number() >= 0,
            node_where + " has negative seconds");
    require(names.insert(name).second,
            node_where + " duplicates sibling span \"" + name +
                "\" (mismatched open/close nesting)");
    check_span_forest(node.at("children"), node_where + "/" + name);
  }
}

/// Numeric array of exactly `expected` nonnegative entries.
void check_series(const JsonValue& block, const char* key,
                  std::size_t expected, const std::string& where) {
  const JsonValue& series = block.at(key);
  require(series.size() == expected,
          where + "/" + key + " has " + std::to_string(series.size()) +
              " entries, expected " + std::to_string(expected));
  for (std::size_t i = 0; i < series.size(); ++i) {
    require(series.at(i).kind() == Kind::kNumber,
            where + "/" + key + "[" + std::to_string(i) + "] is not a number");
    require(series.at(i).as_number() >= 0,
            where + "/" + key + "[" + std::to_string(i) + "] is negative");
  }
}

/// E16's control-loop extension block: per-epoch series for the warm and
/// cold modes, all of the same length as the declared epoch count.
void check_e16(const JsonValue& e16) {
  const double epochs_num = e16.at("epochs").as_number();
  require(epochs_num >= 1, "e16/epochs < 1");
  const auto epochs = static_cast<std::size_t>(epochs_num);
  for (const auto& [name, mode] : e16.at("modes").members()) {
    const std::string where = "e16/modes/" + name;
    check_series(mode, "per_epoch_congestion", epochs, where);
    check_series(mode, "per_epoch_churn", epochs, where);
    check_series(mode, "per_epoch_solve_ms", epochs, where);
    for (const char* key : {"total_solve_ms", "warm_accepts"}) {
      require(mode.at(key).as_number() >= 0,
              where + "/" + key + " is negative");
    }
  }
}

/// The flight-recorder block: bounded event list with non-decreasing
/// timestamps.
void check_events(const JsonValue& block) {
  const JsonValue& events = block.at("events");
  require(events.size() <= block.at("capacity").as_number(),
          "events/events exceeds events/capacity");
  double last_t = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string where = "events/events[" + std::to_string(i) + "]";
    const double t = events.at(i).at("t").as_number();
    require(t >= 0, where + " has negative timestamp");
    require(t >= last_t, where + " timestamps not non-decreasing");
    last_t = t;
  }
}

/// The congestion-attribution block: links sorted by utilization, the
/// top one's matching max_utilization, and per-link contributor shares
/// summing to the link's utilization (both sides recomputed from one
/// weight set, so the tolerance is pure float noise).
void check_attribution(const JsonValue& attribution) {
  const JsonValue& links = attribution.at("links");
  require(attribution.at("top_k").as_number() ==
              static_cast<double>(links.size()),
          "attribution/top_k disagrees with the link count");
  double prev_util = -1;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const std::string where = "attribution/links[" + std::to_string(i) + "]";
    const JsonValue& link = links.at(i);
    const double utilization = link.at("utilization").as_number();
    require(utilization >= 0, where + " has negative utilization");
    if (i == 0) {
      const double max_util = attribution.at("max_utilization").as_number();
      require(std::abs(utilization - max_util) <= 1e-9,
              "attribution/max_utilization does not match the top link");
    }
    if (prev_util >= 0) {
      require(utilization <= prev_util + 1e-12,
              where + " breaks the utilization sort order");
    }
    prev_util = utilization;
    const JsonValue& contributors = link.at("contributors");
    double share_sum = 0;
    for (std::size_t c = 0; c < contributors.size(); ++c) {
      const double share = contributors.at(c).at("share").as_number();
      require(share > 0, where + "/contributors[" + std::to_string(c) +
                             "] has non-positive share");
      share_sum += share;
    }
    require(std::abs(share_sum - utilization) <= 1e-6,
            where + " contributor shares sum to " + std::to_string(share_sum) +
                ", expected utilization " + std::to_string(utilization));
  }
}

/// The schema-v3 convergence block (telemetry/observer.hpp). The exported
/// values are best-so-far envelopes, so the invariants are strict:
///  * the reservoir is bounded: points.size() <= max_points, and
///    iterations >= points.size();
///  * point iterations strictly increase;
///  * objective is non-increasing, bound non-decreasing;
///  * gap carries the -1 "no dual information yet" sentinel in a prefix,
///    then is non-negative (up to float noise) and non-increasing once a
///    bound exists — a positive-going gap means the envelope logic broke.
/// Returns the set of solver names seen (E12 asserts on it).
std::set<std::string> check_convergence(const JsonValue& block) {
  const JsonValue& traces = block.at("traces");
  require(traces.size() <= block.at("capacity").as_number(),
          "convergence/traces exceeds convergence/capacity");
  std::set<std::string> solvers;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string where = "convergence/traces[" + std::to_string(i) + "]";
    const JsonValue& trace = traces.at(i);
    solvers.insert(trace.at("solver").as_string());
    const JsonValue& points = trace.at("points");
    require(points.size() <= trace.at("max_points").as_number(),
            where + " has more points than max_points (unbounded reservoir)");
    require(trace.at("iterations").as_number() >=
                static_cast<double>(points.size()),
            where + " has more points than iterations");
    double last_iteration = -1;
    double last_objective = 0;
    double last_bound = 0;
    double last_gap = 0;
    bool gap_known = false;
    for (std::size_t p = 0; p < points.size(); ++p) {
      const std::string pw = where + "/points[" + std::to_string(p) + "]";
      const JsonValue& point = points.at(p);
      const double iteration = point.at("iteration").as_number();
      const double objective = point.at("objective").as_number();
      const double bound = point.at("bound").as_number();
      const double gap = point.at("gap").as_number();
      require(iteration > last_iteration,
              pw + " iteration does not strictly increase");
      require(p == 0 || objective <= last_objective + 1e-9,
              pw + " objective increases (best-so-far envelope broken)");
      require(bound >= 0, pw + " has negative bound");
      require(p == 0 || bound >= last_bound - 1e-12,
              pw + " bound decreases (best-so-far envelope broken)");
      if (gap == -1) {
        require(!gap_known, pw + " reverts to the -1 gap sentinel after a "
                                 "bound was known");
        require(bound == 0, pw + " has the -1 gap sentinel with a bound");
      } else {
        require(gap >= -1e-6, pw + " has a negative gap (primal below the "
                                   "certified dual bound)");
        require(!gap_known || gap <= last_gap + 1e-9,
                pw + " gap increases (best-so-far envelope broken)");
        gap_known = true;
        last_gap = gap;
      }
      last_iteration = iteration;
      last_objective = objective;
      last_bound = bound;
    }
  }
  return solvers;
}

/// The artifact-cache block: counters from
/// cache::ArtifactCache::global().stats() plus the enabled flag. All
/// counters are non-negative; a disabled cache must report zero traffic
/// (the kill switch bypasses both tiers entirely).
void check_cache(const JsonValue& block) {
  for (const auto& [key, value] : block.members()) {
    require(!value.is_number() || value.as_number() >= 0,
            "cache/" + key + " is negative");
  }
  if (!block.at("enabled").as_bool()) {
    for (const char* key : {"hits", "misses", "disk_hits", "puts"}) {
      require(block.at(key).as_number() == 0,
              std::string("cache/") + key +
                  " is nonzero with the cache disabled (kill switch leaked)");
    }
  }
}

/// The provenance block (src/telemetry/buildinfo.hpp): the
/// configure-time build identity, none of it empty — "unknown" is the
/// documented placeholder, an empty field means the block was assembled
/// by hand. Only cxx_flags may legitimately be empty (a configure with no
/// extra flags).
void check_provenance(const JsonValue& provenance) {
  for (const auto& [key, value] : provenance.members()) {
    require(key == "cxx_flags" || !value.as_string().empty(),
            "provenance/" + key + " is empty");
  }
  require(provenance.at("build_fingerprint").as_string().size() == 16,
          "provenance/build_fingerprint is not a 16-hex-digit fingerprint");
}

/// The memory block (src/telemetry/memory.hpp): two RSS figures of one
/// sample, so peak >= current.
void check_memory(const JsonValue& memory) {
  for (const char* key : {"current_rss_bytes", "peak_rss_bytes"}) {
    require(memory.at(key).as_number() >= 0,
            std::string("memory/") + key + " is negative");
  }
  require(memory.at("peak_rss_bytes").as_number() >=
              memory.at("current_rss_bytes").as_number(),
          "memory/peak_rss_bytes is below current_rss_bytes");
}

/// The routing-quality block (src/engine/quality.hpp): sampled regret
/// series (parallel arrays over the shadow epochs), per-epoch predictor
/// scores with -1/null bootstrap sentinels, and per-epoch churn series.
void check_quality(const JsonValue& quality) {
  const double eps = quality.at("shadow_epsilon").as_number();
  require(eps > 0 && eps < 1, "quality/shadow_epsilon outside (0, 1)");
  const std::size_t epochs =
      static_cast<std::size_t>(quality.at("epochs").as_number());

  const JsonValue& regret = quality.at("regret");
  const std::size_t samples = regret.at("epochs").size();
  require(samples == quality.at("shadow_solves").as_number(),
          "quality/shadow_solves disagrees with quality/regret/epochs");
  for (const char* key : {"achieved", "shadow_opt", "lower_bound", "ratio"}) {
    require(regret.at(key).size() == samples,
            std::string("quality/regret/") + key +
                " length disagrees with quality/regret/epochs");
  }
  double last_epoch = -1;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::string where = "quality/regret[" + std::to_string(i) + "]";
    const double epoch = regret.at("epochs").at(i).as_number();
    require(epoch > last_epoch, where + " epochs not strictly increasing");
    require(epoch < static_cast<double>(epochs),
            where + " epoch index out of range");
    last_epoch = epoch;
    const double achieved = regret.at("achieved").at(i).as_number();
    const double opt = regret.at("shadow_opt").at(i).as_number();
    const double lb = regret.at("lower_bound").at(i).as_number();
    const double ratio = regret.at("ratio").at(i).as_number();
    require(achieved >= 0, where + " achieved congestion negative");
    require(opt >= 0, where + " shadow_opt negative");
    require(lb <= opt * (1 + 1e-9) + 1e-12,
            where + " lower_bound exceeds the shadow primal");
    if (opt > 0) {
      require(std::abs(ratio * opt - achieved) <=
                  1e-9 * std::max(1.0, achieved),
              where + " ratio inconsistent with achieved/shadow_opt");
      // achieved >= OPT and shadow_opt <= (1+eps)·OPT, so the reported
      // ratio can undershoot 1 by at most the shadow epsilon.
      require(ratio >= 1.0 / (1.0 + eps) - 1e-6,
              where + " regret ratio below the 1/(1+eps) floor (achieved "
                      "congestion beat the shadow optimum by more than the "
                      "solver gap)");
    }
  }
  for (const char* key : {"p50", "p95", "max"}) {
    require(regret.at(key).as_number() >= 0,
            std::string("quality/regret/") + key + " is negative");
  }
  require(regret.at("truncated").as_number() <= static_cast<double>(samples),
          "quality/regret/truncated exceeds the sample count");

  const JsonValue& predictor = quality.at("predictor");
  for (const char* key : {"mape", "worst_pair_error", "worst_pair"}) {
    require(predictor.at(key).size() == epochs,
            std::string("quality/predictor/") + key +
                " length disagrees with quality/epochs");
  }
  std::size_t scored = 0;
  for (std::size_t i = 0; i < epochs; ++i) {
    const std::string where = "quality/predictor[" + std::to_string(i) + "]";
    const double mape = predictor.at("mape").at(i).as_number();
    require(mape >= -1, where + " mape below the -1 bootstrap sentinel");
    if (mape >= 0) ++scored;
    const JsonValue& pair = predictor.at("worst_pair").at(i);
    require(pair.is_null() || (pair.is_array() && pair.size() == 2),
            where + " worst_pair is neither null nor a [src, dst] pair");
    require(mape >= 0 || pair.is_null(),
            where + " bootstrap epoch carries a worst pair");
  }
  require(predictor.at("scored_epochs").as_number() ==
              static_cast<double>(scored),
          "quality/predictor/scored_epochs disagrees with the mape series");
  for (const char* key : {"mape_mean", "mape_max"}) {
    require(predictor.at(key).as_number() >= 0,
            std::string("quality/predictor/") + key + " is negative");
  }

  const JsonValue& churn = quality.at("churn");
  check_series(churn, "mask_hamming", epochs, "quality/churn");
  check_series(churn, "weight_l1", epochs, "quality/churn");
  check_series(churn, "top_path_flips", epochs, "quality/churn");
  double total_flips = 0;
  for (std::size_t i = 0; i < epochs; ++i) {
    total_flips += churn.at("top_path_flips").at(i).as_number();
  }
  require(churn.at("total_top_path_flips").as_number() == total_flips,
          "quality/churn/total_top_path_flips disagrees with its series");
}

/// The serving block (src/serve/): throughput and latency figures from
/// the snapshot-swapped serving bench, plus the two correctness audits the
/// serving layer guarantees — zero torn answers (every lookup matched
/// exactly one published epoch) and byte-identity between the published
/// snapshot and route_fractional's split.
void check_serving(const JsonValue& serving) {
  for (const auto& [key, value] : serving.members()) {
    if (!value.is_number()) continue;
    require(std::isfinite(value.as_number()),
            "serving/" + key + " is not finite");
    require(value.as_number() >= 0, "serving/" + key + " is negative");
  }
  require(serving.at("readers").as_number() >= 1, "serving/readers < 1");
  require(serving.at("epochs").as_number() >= 1, "serving/epochs < 1");
  require(serving.at("lookups_per_sec").as_number() > 0,
          "serving/lookups_per_sec is not positive (no lookups timed?)");
  require(serving.at("misses").as_number() <=
              serving.at("lookups").as_number(),
          "serving/misses exceeds serving/lookups");
  const double p50 = serving.at("p50_us").as_number();
  const double p95 = serving.at("p95_us").as_number();
  const double p99 = serving.at("p99_us").as_number();
  require(p50 <= p95 && p95 <= p99,
          "serving latency quantiles are not ordered");
  require(p99 <= serving.at("max_us").as_number(),
          "serving/p99_us exceeds the exact max");
  require(serving.at("torn_lookups").as_number() == 0,
          "serving/torn_lookups is nonzero (a reader saw a table matching "
          "no published epoch — the snapshot-swap contract is broken)");
  require(serving.at("identity_ok").as_bool(),
          "serving/identity_ok is false (published snapshot is not "
          "byte-identical to route_fractional on the same matrix)");
}

/// The runtime-health block (src/telemetry/metrics.hpp): sketch
/// snapshots whose bucket counts reconcile with the reported count and
/// whose quantiles are ordered, recorder drop accounting, and a breach
/// list consistent with the 0/1 status.
void check_health(const JsonValue& health) {
  const JsonValue& recorder = health.at("recorder");
  require(recorder.at("dropped").as_number() >= 0,
          "health/recorder/dropped is negative");
  require(recorder.at("dropped").as_number() <=
              recorder.at("recorded").as_number(),
          "health/recorder dropped more events than it recorded");

  for (const auto& [name, sketch] : health.at("sketches").members()) {
    const std::string where = "health/sketches/" + name;
    check_shape(sketch, "sketch", where);
    const JsonValue& buckets = sketch.at("buckets");
    double bucket_total = 0;
    double last_index = -1;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const std::string bw = where + "/buckets[" + std::to_string(i) + "]";
      const JsonValue& pair = buckets.at(i);
      require(pair.is_array() && pair.size() == 2,
              bw + " is not an [index, count] pair");
      const double index = pair.at(std::size_t{0}).as_number();
      const double count = pair.at(std::size_t{1}).as_number();
      require(index > last_index, bw + " bucket indices not increasing");
      require(count > 0, bw + " has a non-positive count");
      last_index = index;
      bucket_total += count;
    }
    const double count = sketch.at("count").as_number();
    require(bucket_total == count,
            where + " bucket counts sum to " + std::to_string(bucket_total) +
                ", expected count " + std::to_string(count));
    const double p50 = sketch.at("p50").as_number();
    const double p95 = sketch.at("p95").as_number();
    const double p99 = sketch.at("p99").as_number();
    require(p50 <= p95 && p95 <= p99, where + " quantiles are not ordered");
    if (count > 0 && sketch.at("min").as_number() >= 0) {
      // Quantiles report bucket lower bounds, so for non-negative data
      // they never exceed the exact max.
      require(p99 <= sketch.at("max").as_number(),
              where + " p99 exceeds the exact max");
    }
  }

  const bool breached = health.at("breaches").size() > 0;
  require((health.at("status").as_number() != 0) == breached,
          "health/status disagrees with the breach list");
}

/// The table columns that measure wall-clock time, by experiment:
/// --compare-tables skips them, and compares every other cell.
const std::map<std::string, std::set<std::string>> kWallClockColumns = {
    {"E16", {"solve_ms"}},
    {"E17", {"lookups", "lookups/s", "p50_us", "p99_us"}},
};

/// --compare-tables: the "table" blocks of two artifacts of one experiment
/// must serialize identically, cell by cell, outside its wall-clock
/// columns. This is the bit-identical-reuse check of the cold/warm fixture
/// chain: a warm (cache-served) bench run must reproduce the cold run's
/// numbers exactly, not approximately.
int compare_tables(const JsonValue& a, const JsonValue& b, const char* path_a,
                   const char* path_b) {
  require(a.is_object() && a.has("table") && a.has("experiment"),
          std::string(path_a) + ": no table or experiment");
  require(b.is_object() && b.has("table") && b.has("experiment"),
          std::string(path_b) + ": no table or experiment");
  const std::string& experiment = a.at("experiment").as_string();
  require(experiment == b.at("experiment").as_string(),
          std::string("experiments differ between ") + path_a + " and " +
              path_b);
  const JsonValue& table_a = a.at("table");
  const JsonValue& table_b = b.at("table");
  const auto mismatch = [&](const std::string& what) {
    std::fprintf(stderr,
                 "table mismatch between %s and %s (%s):\n--- %s\n%s\n"
                 "--- %s\n%s\n",
                 path_a, path_b, what.c_str(), path_a,
                 table_a.dump().c_str(), path_b, table_b.dump().c_str());
    return 1;
  };
  const JsonValue& columns = table_a.at("columns");
  if (columns.dump() != table_b.at("columns").dump()) {
    return mismatch("columns");
  }
  const JsonValue& rows_a = table_a.at("rows");
  const JsonValue& rows_b = table_b.at("rows");
  if (rows_a.size() != rows_b.size()) return mismatch("row count");
  const auto skipped = kWallClockColumns.find(experiment);
  std::size_t skipped_cells = 0;
  for (std::size_t r = 0; r < rows_a.size(); ++r) {
    const JsonValue& row_a = rows_a.at(r);
    const JsonValue& row_b = rows_b.at(r);
    if (row_a.size() != columns.size() || row_b.size() != columns.size()) {
      return mismatch("row " + std::to_string(r) + " width");
    }
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const std::string& column = columns.at(c).as_string();
      if (skipped != kWallClockColumns.end() &&
          skipped->second.count(column) > 0) {
        ++skipped_cells;
        continue;
      }
      if (row_a.at(c).dump() != row_b.at(c).dump()) {
        return mismatch("row " + std::to_string(r) + ", column " + column);
      }
    }
  }
  std::printf("tables identical (%zu rows, %zu wall-clock cells skipped)\n",
              rows_a.size(), skipped_cells);
  return 0;
}

/// --chrome-trace: trace-event JSON with sorted non-negative timestamps
/// and non-negative durations on complete ("X") events.
int check_chrome_trace(const JsonValue& doc) {
  require(doc.is_object(), "top level is not an object");
  const JsonValue& events = member(doc, "traceEvents", Kind::kArray, "");
  double last_ts = 0;
  std::size_t spans = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    const JsonValue& event = events.at(i);
    require(event.is_object(), where + " is not an object");
    member(event, "name", Kind::kString, where);
    member(event, "pid", Kind::kNumber, where);
    member(event, "tid", Kind::kNumber, where);
    const double ts = member(event, "ts", Kind::kNumber, where).as_number();
    require(ts >= 0, where + " has negative ts");
    require(ts >= last_ts, where + " timestamps not non-decreasing");
    last_ts = ts;
    const std::string& ph =
        member(event, "ph", Kind::kString, where).as_string();
    require(ph == "X" || ph == "i" || ph == "C",
            where + " has unexpected phase " + ph);
    if (ph == "X") {
      require(member(event, "dur", Kind::kNumber, where).as_number() >= 0,
              where + " has negative dur");
      ++spans;
    }
  }
  std::printf("ok (%zu events, %zu spans)\n", events.size(), spans);
  return 0;
}

JsonValue load_json_or_exit(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return JsonValue::parse(buffer.str());
  } catch (const sor::CheckError& e) {
    std::fprintf(stderr, "parse error in %s: %s\n", path, e.what());
    std::exit(1);
  }
}

int run(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  const bool chrome_trace = argc == 3 && mode == "--chrome-trace";
  const bool require_cache_hits = argc == 3 && mode == "--require-cache-hits";
  const bool compare_mode = argc == 4 && mode == "--compare-tables";
  if (argc != 2 && !chrome_trace && !require_cache_hits && !compare_mode) {
    std::fprintf(stderr,
                 "usage: %s <BENCH_<id>.json>\n"
                 "       %s --chrome-trace <trace.json>\n"
                 "       %s --require-cache-hits <BENCH_<id>.json>\n"
                 "       %s --compare-tables <a.json> <b.json>\n",
                 argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  if (compare_mode) {
    const JsonValue a = load_json_or_exit(argv[2]);
    const JsonValue b = load_json_or_exit(argv[3]);
    return compare_tables(a, b, argv[2], argv[3]);
  }
  const char* path = argc == 3 ? argv[2] : argv[1];
  const JsonValue doc = load_json_or_exit(path);

  if (chrome_trace) return check_chrome_trace(doc);

  // The version decides which key table applies, so it is read first.
  require(doc.is_object(), "top level is not an object");
  const double version =
      member(doc, "schema_version", Kind::kNumber, "").as_number();
  if (version > kArtifactSchemaVersion) {
    std::fprintf(stderr,
                 "unknown schema_version %g (this checker understands %d; "
                 "artifact written by a newer bench build — rebuild the "
                 "checker)\n",
                 version, kArtifactSchemaVersion);
    return kExitUnknownVersion;
  }
  require(version == kArtifactSchemaVersion,
          "schema_version " + std::to_string(static_cast<int>(version)) +
              " < " + std::to_string(kArtifactSchemaVersion) +
              " (artifact written by an old bench build)");
  check_shape(doc, "artifact", "");

  require(doc.at("wall_seconds").as_number() >= 0, "wall_seconds is negative");
  const JsonValue& table = doc.at("table");
  const std::size_t num_cols = table.at("columns").size();
  require(num_cols > 0, "table has no columns");
  const JsonValue& rows = table.at("rows");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const JsonValue& row = rows.at(r);
    require(row.is_array(), "table row " + std::to_string(r) + " not an array");
    require(row.size() == num_cols,
            "table row " + std::to_string(r) + " has " +
                std::to_string(row.size()) + " cells, expected " +
                std::to_string(num_cols));
  }
  check_span_forest(doc.at("spans"), "spans");
  check_events(doc.at("events"));
  const std::set<std::string> solvers =
      check_convergence(doc.at("convergence"));
  check_cache(doc.at("cache"));
  check_health(doc.at("health"));
  check_provenance(doc.at("provenance"));
  check_memory(doc.at("memory"));
  // The optional blocks validate wherever they appear; the experiments
  // that must carry one require it below.
  if (doc.has("quality")) check_quality(doc.at("quality"));
  if (doc.has("serving")) check_serving(doc.at("serving"));
  if (doc.has("attribution")) check_attribution(doc.at("attribution"));
  if (doc.has("e16")) check_e16(doc.at("e16"));
  if (require_cache_hits) {
    const JsonValue& cache = doc.at("cache");
    require(cache.at("enabled").as_bool(),
            "--require-cache-hits: cache was disabled for this run");
    const double total_hits =
        cache.at("hits").as_number() + cache.at("disk_hits").as_number();
    require(total_hits > 0,
            "--require-cache-hits: artifact reports zero cache hits (warm "
            "run rebuilt its artifacts from scratch)");
  }

  const std::string& experiment = doc.at("experiment").as_string();
  const JsonValue& sketches = doc.at("health").at("sketches");
  if (experiment == "E12") {
    // E12 exercises MCF (opt baselines), MWU (semi-oblivious routing), and
    // the exact simplex (cross-check block), so a telemetry-enabled run
    // must carry a trace from each of the iterative solvers.
    require(solvers.count("mcf") == 1,
            "E12 artifact has no mcf convergence trace (observer threading "
            "or SOR_TELEMETRY off)");
    require(solvers.count("simplex") == 1,
            "E12 artifact has no simplex convergence trace (exact "
            "cross-check missing or SOR_TELEMETRY off)");
    require(solvers.count("mwu") == 1,
            "E12 artifact has no mwu convergence trace");
    // ... and the simplex charged its tableau bytes, the figure the
    // bytes column of `sor_cli report`'s per-span cost prints for
    // lp/simplex.
    require(sketches.has("lp/simplex_bytes") &&
                sketches.at("lp/simplex_bytes").at("count").as_number() > 0,
            "E12 health block has no lp/simplex_bytes observation");
  }
  if (experiment == "E16") {
    require(doc.has("e16"), "E16 artifact is missing the e16 block");
    require(doc.has("attribution"), "E16 artifact is missing attribution");
    require(doc.at("events").at("events").size() > 0,
            "E16 artifact has no recorder events (controller instrumentation "
            "or SOR_TELEMETRY off)");
    // The control loop must have fed the health layer: solve-latency
    // quantiles and a congestion watermark.
    require(sketches.has("engine/solve_seconds"),
            "E16 health block has no engine/solve_seconds sketch");
    require(sketches.at("engine/solve_seconds").at("count").as_number() > 0,
            "E16 engine/solve_seconds sketch is empty");
    require(sketches.has("engine/congestion"),
            "E16 health block has no engine/congestion sketch");
    require(sketches.at("engine/congestion").at("max").as_number() > 0,
            "E16 congestion watermark is zero");
    // The control-loop bench must carry the observatory's output: a
    // quality block with at least one shadow sample (E16 runs with
    // shadow_every = 2) and a scored prediction.
    require(doc.has("quality"), "E16 artifact is missing quality block");
    const JsonValue& quality = doc.at("quality");
    require(quality.at("shadow_solves").as_number() > 0,
            "E16 quality block has no shadow samples (observatory off?)");
    require(quality.at("predictor").at("scored_epochs").as_number() > 0,
            "E16 quality block scored no predictions");
  }
  if (experiment == "E17") {
    require(doc.has("serving"), "E17 artifact is missing the serving block");
    require(doc.at("events").at("events").size() > 0,
            "E17 artifact has no recorder events (publish instrumentation "
            "or SOR_TELEMETRY off)");
  }

  std::printf("%s: ok (%zu spans, %zu sketches, %zu recorder events)\n",
              path, doc.at("spans").size(), sketches.members().size(),
              doc.at("events").at("events").size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A value of the wrong kind inside a block (a string where a bucket
  // index belongs, say) throws from JsonValue's accessors: it is a schema
  // violation like any other, not a crash.
  try {
    return run(argc, argv);
  } catch (const sor::CheckError& e) {
    std::fprintf(stderr, "schema violation: %s\n", e.what());
    return 1;
  }
}
