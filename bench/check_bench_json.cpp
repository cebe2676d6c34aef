// Validates a BENCH_<id>.json artifact against the schema documented in
// EXPERIMENTS.md. Exits 0 if the document parses and every required key
// has the right shape; prints the first violation and exits 1 otherwise.
// One schema is accepted, v10: an older artifact exits 1 ("written by an
// old bench build"), and one stamped NEWER than this checker knows exits
// with the dedicated code 3: "rebuild the checker", not "the artifact is
// broken". Usage errors exit 2.
//
// Usage: check_bench_json <path/to/BENCH_E1.json>
//        check_bench_json --chrome-trace <path/to/trace.json>
//        check_bench_json --require-cache-hits <path/to/BENCH_E1.json>
//        check_bench_json --compare-tables <a.json> <b.json>
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
// --compare-tables asserts the "table" blocks of two artifacts are
// byte-identical (cached and uncached runs must produce bit-identical
// routing results; wall-clock blocks are expected to differ).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "telemetry/json.hpp"
#include "util/check.hpp"

namespace {

using sor::telemetry::JsonValue;

/// The schema_version this checker understands; keep in lockstep with
/// bench_common.hpp's kArtifactSchemaVersion.
constexpr int kSchemaVersion = 10;
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

void check_member(const JsonValue& doc, const char* key, JsonValue::Kind kind,
                  const char* kind_name) {
  require(doc.has(key), std::string("missing key \"") + key + "\"");
  require(doc.at(key).kind() == kind,
          std::string("key \"") + key + "\" is not a " + kind_name);
}

/// A block may change shape only with a schema bump, so a key outside
/// the ones v10 defines for `block` (a re-added "watermarks", say) means
/// the artifact drifted from its version stamp.
void check_keys(const JsonValue& block, const std::string& where,
                const std::set<std::string>& keys) {
  for (const auto& [key, value] : block.members()) {
    require(keys.count(key) == 1, where + " carries \"" + key +
                                      "\", which schema v10 does not define");
  }
}

void check_span_node(const JsonValue& node, const std::string& where) {
  require(node.is_object(), where + " is not an object");
  check_member(node, "name", JsonValue::Kind::kString, "string");
  check_member(node, "count", JsonValue::Kind::kNumber, "number");
  check_member(node, "seconds", JsonValue::Kind::kNumber, "number");
  check_member(node, "children", JsonValue::Kind::kArray, "array");
  // Integrity of the exporter's open/close bookkeeping: a span that was
  // opened but never closed (or closed twice) exports with count < 1, and
  // a name can only appear once among its siblings — the exporter
  // aggregates same-name children into one node, so a duplicate means two
  // nodes were stitched under mismatched parents.
  require(node.at("count").as_number() >= 1,
          where + " has count < 1 (span opened but never closed)");
  require(node.at("seconds").as_number() >= 0,
          where + " has negative seconds");
  const JsonValue& children = node.at("children");
  std::set<std::string> sibling_names;
  for (std::size_t i = 0; i < children.size(); ++i) {
    const std::string child_where = where + "/" + node.at("name").as_string() +
                                    "[" + std::to_string(i) + "]";
    check_span_node(children.at(i), child_where);
    const std::string child_name = children.at(i).at("name").as_string();
    require(sibling_names.insert(child_name).second,
            child_where + " duplicates sibling span \"" + child_name +
                "\" (mismatched open/close nesting)");
  }
}

/// Numeric array of exactly `expected` nonnegative entries.
void check_series(const JsonValue& mode, const char* key, std::size_t expected,
                  const std::string& where) {
  check_member(mode, key, JsonValue::Kind::kArray, "array");
  const JsonValue& series = mode.at(key);
  require(series.size() == expected,
          where + "/" + key + " has " + std::to_string(series.size()) +
              " entries, expected " + std::to_string(expected));
  for (std::size_t i = 0; i < series.size(); ++i) {
    require(series.at(i).kind() == JsonValue::Kind::kNumber,
            where + "/" + key + "[" + std::to_string(i) + "] is not a number");
    require(series.at(i).as_number() >= 0,
            where + "/" + key + "[" + std::to_string(i) + "] is negative");
  }
}

/// E16 carries the control-loop extension block: per-epoch series for the
/// warm and cold modes, all of the same length as the declared epoch count.
void check_e16(const JsonValue& doc) {
  check_member(doc, "e16", JsonValue::Kind::kObject, "object");
  const JsonValue& e16 = doc.at("e16");
  check_member(e16, "epochs", JsonValue::Kind::kNumber, "number");
  const double epochs_num = e16.at("epochs").as_number();
  require(epochs_num >= 1, "e16/epochs < 1");
  const std::size_t epochs = static_cast<std::size_t>(epochs_num);
  check_member(e16, "modes", JsonValue::Kind::kObject, "object");
  const JsonValue& modes = e16.at("modes");
  for (const char* name : {"warm", "cold"}) {
    const std::string where = std::string("e16/modes/") + name;
    require(modes.has(name), "missing " + where);
    const JsonValue& mode = modes.at(name);
    require(mode.is_object(), where + " is not an object");
    check_series(mode, "per_epoch_congestion", epochs, where);
    check_series(mode, "per_epoch_churn", epochs, where);
    check_series(mode, "per_epoch_solve_ms", epochs, where);
    check_member(mode, "total_solve_ms", JsonValue::Kind::kNumber, "number");
    require(mode.at("total_solve_ms").as_number() >= 0,
            where + "/total_solve_ms is negative");
    check_member(mode, "warm_accepts", JsonValue::Kind::kNumber, "number");
    require(mode.at("warm_accepts").as_number() >= 0,
            where + "/warm_accepts is negative");
  }
}

/// The flight-recorder block written by bench_common's artifact_json:
/// bounded event list with non-decreasing timestamps.
void check_events(const JsonValue& doc) {
  check_member(doc, "events", JsonValue::Kind::kObject, "object");
  const JsonValue& block = doc.at("events");
  check_member(block, "capacity", JsonValue::Kind::kNumber, "number");
  check_member(block, "dropped", JsonValue::Kind::kNumber, "number");
  check_member(block, "total", JsonValue::Kind::kNumber, "number");
  check_member(block, "events", JsonValue::Kind::kArray, "array");
  const JsonValue& events = block.at("events");
  require(events.size() <= block.at("capacity").as_number(),
          "events/events exceeds events/capacity");
  double last_t = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string where = "events/events[" + std::to_string(i) + "]";
    const JsonValue& event = events.at(i);
    require(event.is_object(), where + " is not an object");
    check_member(event, "t", JsonValue::Kind::kNumber, "number");
    check_member(event, "category", JsonValue::Kind::kString, "string");
    check_member(event, "fields", JsonValue::Kind::kObject, "object");
    const double t = event.at("t").as_number();
    require(t >= 0, where + " has negative timestamp");
    require(t >= last_t, where + " timestamps not non-decreasing");
    last_t = t;
  }
}

/// The congestion-attribution block: per-link contributor shares must sum
/// to the link's utilization (both sides recomputed from one weight set,
/// so the tolerance is pure float noise).
void check_attribution(const JsonValue& doc) {
  const JsonValue& attribution = doc.at("attribution");
  require(attribution.is_object(), "attribution is not an object");
  check_member(attribution, "max_utilization", JsonValue::Kind::kNumber,
               "number");
  check_member(attribution, "loaded_links", JsonValue::Kind::kNumber,
               "number");
  check_member(attribution, "links", JsonValue::Kind::kArray, "array");
  const JsonValue& links = attribution.at("links");
  double prev_util = -1;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const std::string where = "attribution/links[" + std::to_string(i) + "]";
    const JsonValue& link = links.at(i);
    require(link.is_object(), where + " is not an object");
    for (const char* key : {"edge", "u", "v", "capacity", "load",
                            "utilization"}) {
      check_member(link, key, JsonValue::Kind::kNumber, "number");
    }
    check_member(link, "contributors", JsonValue::Kind::kArray, "array");
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
      const std::string cw = where + "/contributors[" + std::to_string(c) + "]";
      const JsonValue& contributor = contributors.at(c);
      require(contributor.is_object(), cw + " is not an object");
      for (const char* key : {"src", "dst", "commodity", "path_index", "hops",
                              "load", "share"}) {
        check_member(contributor, key, JsonValue::Kind::kNumber, "number");
      }
      require(contributor.at("share").as_number() > 0,
              cw + " has non-positive share");
      share_sum += contributor.at("share").as_number();
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
std::set<std::string> check_convergence(const JsonValue& doc) {
  check_member(doc, "convergence", JsonValue::Kind::kObject, "object");
  const JsonValue& block = doc.at("convergence");
  check_member(block, "capacity", JsonValue::Kind::kNumber, "number");
  check_member(block, "dropped", JsonValue::Kind::kNumber, "number");
  check_member(block, "traces", JsonValue::Kind::kArray, "array");
  const JsonValue& traces = block.at("traces");
  require(traces.size() <= block.at("capacity").as_number(),
          "convergence/traces exceeds convergence/capacity");
  std::set<std::string> solvers;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string where = "convergence/traces[" + std::to_string(i) + "]";
    const JsonValue& trace = traces.at(i);
    require(trace.is_object(), where + " is not an object");
    check_member(trace, "solver", JsonValue::Kind::kString, "string");
    check_member(trace, "label", JsonValue::Kind::kString, "string");
    check_member(trace, "iterations", JsonValue::Kind::kNumber, "number");
    check_member(trace, "max_points", JsonValue::Kind::kNumber, "number");
    check_member(trace, "truncated", JsonValue::Kind::kBool, "bool");
    check_member(trace, "counters", JsonValue::Kind::kObject, "object");
    check_member(trace, "points", JsonValue::Kind::kArray, "array");
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
      require(point.is_object(), pw + " is not an object");
      for (const char* key : {"iteration", "t", "objective", "bound", "gap"}) {
        check_member(point, key, JsonValue::Kind::kNumber, "number");
      }
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
void check_cache(const JsonValue& doc) {
  check_member(doc, "cache", JsonValue::Kind::kObject, "object");
  const JsonValue& block = doc.at("cache");
  check_member(block, "enabled", JsonValue::Kind::kBool, "bool");
  for (const char* key : {"hits", "misses", "disk_hits", "puts", "evictions",
                          "corrupt", "bytes", "entries"}) {
    check_member(block, key, JsonValue::Kind::kNumber, "number");
    require(block.at(key).as_number() >= 0,
            std::string("cache/") + key + " is negative");
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
/// configure-time build identity, all strings, none empty — "unknown" is
/// the documented placeholder, an empty field means the block was
/// assembled by hand.
void check_provenance(const JsonValue& doc) {
  check_member(doc, "provenance", JsonValue::Kind::kObject, "object");
  const JsonValue& provenance = doc.at("provenance");
  for (const char* key :
       {"compiler_id", "compiler_version", "build_type", "sanitize",
        "build_fingerprint", "git_describe"}) {
    check_member(provenance, key, JsonValue::Kind::kString, "string");
    require(!provenance.at(key).as_string().empty(),
            std::string("provenance/") + key + " is empty");
  }
  // cxx_flags may legitimately be empty (a configure with no extra
  // flags), so only its type is enforced.
  check_member(provenance, "cxx_flags", JsonValue::Kind::kString, "string");
  require(provenance.at("build_fingerprint").as_string().size() == 16,
          "provenance/build_fingerprint is not a 16-hex-digit fingerprint");
}

/// The memory block (src/telemetry/memory.hpp): RSS figures
/// with peak >= current (both sides of one sample), and per-subsystem
/// live/high-water byte accounts with high_water >= live (the high-water
/// mark is monotone over live).
void check_memory(const JsonValue& doc) {
  check_member(doc, "memory", JsonValue::Kind::kObject, "object");
  const JsonValue& memory = doc.at("memory");
  for (const char* key : {"current_rss_bytes", "peak_rss_bytes"}) {
    check_member(memory, key, JsonValue::Kind::kNumber, "number");
    require(memory.at(key).as_number() >= 0,
            std::string("memory/") + key + " is negative");
  }
  require(memory.at("peak_rss_bytes").as_number() >=
              memory.at("current_rss_bytes").as_number(),
          "memory/peak_rss_bytes is below current_rss_bytes");
  check_member(memory, "subsystems", JsonValue::Kind::kObject, "object");
  for (const auto& [name, entry] : memory.at("subsystems").members()) {
    const std::string where = "memory/subsystems/" + name;
    require(entry.is_object(), where + " is not an object");
    for (const char* key : {"live_bytes", "high_water_bytes"}) {
      check_member(entry, key, JsonValue::Kind::kNumber, "number");
      require(entry.at(key).as_number() >= 0,
              where + "/" + key + " is negative");
    }
    require(entry.at("high_water_bytes").as_number() >=
                entry.at("live_bytes").as_number(),
            where + " high-water mark is below live bytes");
  }
}

/// The routing-quality block (src/engine/quality.hpp): sampled regret
/// series (parallel arrays over the shadow epochs), per-epoch predictor
/// scores with -1/null bootstrap sentinels, and per-epoch churn series.
void check_quality(const JsonValue& doc) {
  check_member(doc, "quality", JsonValue::Kind::kObject, "object");
  const JsonValue& quality = doc.at("quality");
  check_member(quality, "shadow_every", JsonValue::Kind::kNumber, "number");
  check_member(quality, "shadow_epsilon", JsonValue::Kind::kNumber, "number");
  check_member(quality, "epochs", JsonValue::Kind::kNumber, "number");
  check_member(quality, "shadow_solves", JsonValue::Kind::kNumber, "number");
  const double eps = quality.at("shadow_epsilon").as_number();
  require(eps > 0 && eps < 1, "quality/shadow_epsilon outside (0, 1)");
  const std::size_t epochs =
      static_cast<std::size_t>(quality.at("epochs").as_number());

  check_member(quality, "regret", JsonValue::Kind::kObject, "object");
  const JsonValue& regret = quality.at("regret");
  for (const char* key : {"epochs", "achieved", "shadow_opt", "lower_bound",
                          "ratio"}) {
    check_member(regret, key, JsonValue::Kind::kArray, "array");
  }
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
    check_member(regret, key, JsonValue::Kind::kNumber, "number");
    require(regret.at(key).as_number() >= 0,
            std::string("quality/regret/") + key + " is negative");
  }
  check_member(regret, "truncated", JsonValue::Kind::kNumber, "number");
  require(regret.at("truncated").as_number() <= static_cast<double>(samples),
          "quality/regret/truncated exceeds the sample count");

  check_member(quality, "predictor", JsonValue::Kind::kObject, "object");
  const JsonValue& predictor = quality.at("predictor");
  for (const char* key : {"mape", "worst_pair_error", "worst_pair"}) {
    check_member(predictor, key, JsonValue::Kind::kArray, "array");
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
  check_member(predictor, "scored_epochs", JsonValue::Kind::kNumber, "number");
  require(predictor.at("scored_epochs").as_number() ==
              static_cast<double>(scored),
          "quality/predictor/scored_epochs disagrees with the mape series");
  for (const char* key : {"mape_mean", "mape_max"}) {
    check_member(predictor, key, JsonValue::Kind::kNumber, "number");
    require(predictor.at(key).as_number() >= 0,
            std::string("quality/predictor/") + key + " is negative");
  }

  check_member(quality, "churn", JsonValue::Kind::kObject, "object");
  const JsonValue& churn = quality.at("churn");
  check_series(churn, "mask_hamming", epochs, "quality/churn");
  check_series(churn, "weight_l1", epochs, "quality/churn");
  check_series(churn, "top_path_flips", epochs, "quality/churn");
  check_member(churn, "total_top_path_flips", JsonValue::Kind::kNumber,
               "number");
  double total_flips = 0;
  for (std::size_t i = 0; i < epochs; ++i) {
    total_flips += churn.at("top_path_flips").at(i).as_number();
  }
  require(churn.at("total_top_path_flips").as_number() == total_flips,
          "quality/churn/total_top_path_flips disagrees with its series");
}

/// The serving block (src/serve/): throughput and latency
/// figures from the snapshot-swapped serving bench, plus the two
/// correctness audits the serving layer guarantees — zero torn answers
/// (every lookup matched exactly one published epoch) and byte-identity
/// between the published snapshot and route_fractional's split.
void check_serving(const JsonValue& doc) {
  check_member(doc, "serving", JsonValue::Kind::kObject, "object");
  const JsonValue& serving = doc.at("serving");
  for (const char* key :
       {"readers", "epochs", "snapshots_published", "lookups", "misses",
        "torn_lookups", "lookups_per_sec", "p50_us", "p95_us", "p99_us",
        "max_us", "updates_enqueued", "updates_applied"}) {
    check_member(serving, key, JsonValue::Kind::kNumber, "number");
    const double v = serving.at(key).as_number();
    require(std::isfinite(v), std::string("serving/") + key + " is not finite");
    require(v >= 0, std::string("serving/") + key + " is negative");
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
  check_member(serving, "identity_ok", JsonValue::Kind::kBool, "bool");
  require(serving.at("identity_ok").as_bool(),
          "serving/identity_ok is false (published snapshot is not "
          "byte-identical to route_fractional on the same matrix)");
}

/// The runtime-health block (src/telemetry/metrics.hpp): sketch
/// snapshots whose bucket counts reconcile with the reported count and
/// whose quantiles are ordered, recorder drop accounting, and a breach
/// list consistent with the 0/1 status — and nothing else (each sketch's
/// max is its watermark; the registry keeps no per-epoch windows).
void check_health(const JsonValue& doc) {
  check_member(doc, "health", JsonValue::Kind::kObject, "object");
  const JsonValue& health = doc.at("health");
  check_keys(health, "health",
             {"enabled", "recorder", "sketches", "breaches", "status"});
  check_member(health, "enabled", JsonValue::Kind::kBool, "bool");
  check_member(health, "recorder", JsonValue::Kind::kObject, "object");
  const JsonValue& recorder = health.at("recorder");
  check_member(recorder, "recorded", JsonValue::Kind::kNumber, "number");
  check_member(recorder, "dropped", JsonValue::Kind::kNumber, "number");
  require(recorder.at("dropped").as_number() >= 0,
          "health/recorder/dropped is negative");
  require(recorder.at("dropped").as_number() <=
              recorder.at("recorded").as_number(),
          "health/recorder dropped more events than it recorded");

  check_member(health, "sketches", JsonValue::Kind::kObject, "object");
  for (const auto& [name, sketch] : health.at("sketches").members()) {
    const std::string where = "health/sketches/" + name;
    require(sketch.is_object(), where + " is not an object");
    for (const char* key : {"count", "sum", "min", "max", "p50", "p95",
                            "p99"}) {
      check_member(sketch, key, JsonValue::Kind::kNumber, "number");
    }
    check_member(sketch, "buckets", JsonValue::Kind::kArray, "array");
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

  check_member(health, "breaches", JsonValue::Kind::kArray, "array");
  const JsonValue& breaches = health.at("breaches");
  for (std::size_t i = 0; i < breaches.size(); ++i) {
    const std::string where = "health/breaches[" + std::to_string(i) + "]";
    const JsonValue& breach = breaches.at(i);
    require(breach.is_object(), where + " is not an object");
    check_member(breach, "slo", JsonValue::Kind::kString, "string");
    for (const char* key : {"epoch", "value", "budget"}) {
      check_member(breach, key, JsonValue::Kind::kNumber, "number");
    }
  }
  check_member(health, "status", JsonValue::Kind::kNumber, "number");
  const bool breached = breaches.size() > 0;
  require((health.at("status").as_number() != 0) == breached,
          "health/status disagrees with the breach list");
}

/// --compare-tables: the "table" blocks of two artifacts must serialize
/// identically. This is the bit-identical-reuse check of the cold/warm
/// fixture chain: a warm (cache-served) bench run must reproduce the cold
/// run's numbers exactly, not approximately.
int compare_tables(const JsonValue& a, const JsonValue& b, const char* path_a,
                   const char* path_b) {
  require(a.is_object() && a.has("table"), std::string(path_a) + ": no table");
  require(b.is_object() && b.has("table"), std::string(path_b) + ": no table");
  const std::string dump_a = a.at("table").dump();
  const std::string dump_b = b.at("table").dump();
  if (dump_a != dump_b) {
    std::fprintf(stderr,
                 "table mismatch between %s and %s:\n--- %s\n%s\n--- %s\n%s\n",
                 path_a, path_b, path_a, dump_a.c_str(), path_b,
                 dump_b.c_str());
    return 1;
  }
  std::printf("tables identical (%zu rows)\n",
              a.at("table").at("rows").size());
  return 0;
}

/// --chrome-trace: trace-event JSON with sorted non-negative timestamps
/// and non-negative durations on complete ("X") events.
int check_chrome_trace(const JsonValue& doc) {
  require(doc.is_object(), "top level is not an object");
  check_member(doc, "traceEvents", JsonValue::Kind::kArray, "array");
  const JsonValue& events = doc.at("traceEvents");
  double last_ts = 0;
  std::size_t spans = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    const JsonValue& event = events.at(i);
    require(event.is_object(), where + " is not an object");
    check_member(event, "name", JsonValue::Kind::kString, "string");
    check_member(event, "ph", JsonValue::Kind::kString, "string");
    check_member(event, "ts", JsonValue::Kind::kNumber, "number");
    check_member(event, "pid", JsonValue::Kind::kNumber, "number");
    check_member(event, "tid", JsonValue::Kind::kNumber, "number");
    const double ts = event.at("ts").as_number();
    require(ts >= 0, where + " has negative ts");
    require(ts >= last_ts, where + " timestamps not non-decreasing");
    last_ts = ts;
    const std::string& ph = event.at("ph").as_string();
    require(ph == "X" || ph == "i" || ph == "C",
            where + " has unexpected phase " + ph);
    if (ph == "X") {
      check_member(event, "dur", JsonValue::Kind::kNumber, "number");
      require(event.at("dur").as_number() >= 0, where + " has negative dur");
      ++spans;
    }
  }
  std::printf("ok (%zu events, %zu spans)\n", events.size(), spans);
  return 0;
}

}  // namespace

namespace {

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

}  // namespace

int main(int argc, char** argv) {
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

  require(doc.is_object(), "top level is not an object");
  check_member(doc, "schema_version", JsonValue::Kind::kNumber, "number");
  const double version = doc.at("schema_version").as_number();
  if (version > kSchemaVersion) {
    std::fprintf(stderr,
                 "unknown schema_version %g (this checker understands %d; "
                 "artifact written by a newer bench build — rebuild the "
                 "checker)\n",
                 version, kSchemaVersion);
    return kExitUnknownVersion;
  }
  require(version == kSchemaVersion,
          "schema_version " + std::to_string(static_cast<int>(version)) +
              " < " + std::to_string(kSchemaVersion) +
              " (artifact written by an old bench build)");
  check_member(doc, "experiment", JsonValue::Kind::kString, "string");
  check_member(doc, "title", JsonValue::Kind::kString, "string");
  check_member(doc, "claim", JsonValue::Kind::kString, "string");
  check_member(doc, "git_describe", JsonValue::Kind::kString, "string");
  check_member(doc, "quick_mode", JsonValue::Kind::kBool, "bool");
  check_member(doc, "wall_seconds", JsonValue::Kind::kNumber, "number");
  require(doc.at("wall_seconds").as_number() >= 0, "wall_seconds is negative");

  check_member(doc, "table", JsonValue::Kind::kObject, "object");
  const JsonValue& table = doc.at("table");
  check_member(table, "columns", JsonValue::Kind::kArray, "array");
  check_member(table, "rows", JsonValue::Kind::kArray, "array");
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

  check_member(doc, "telemetry", JsonValue::Kind::kObject, "object");
  const JsonValue& telemetry = doc.at("telemetry");
  check_member(telemetry, "counters", JsonValue::Kind::kObject, "object");
  check_member(telemetry, "gauges", JsonValue::Kind::kObject, "object");
  // Distributions are health sketches: no "histograms" map.
  check_keys(telemetry, "telemetry", {"counters", "gauges"});
  for (const auto& [name, value] : telemetry.at("counters").members()) {
    require(name.rfind("cost/", 0) != 0,
            "telemetry counter \"" + name +
                "\" is a cost/ counter (solver cost lives in the spans)");
  }

  check_member(doc, "spans", JsonValue::Kind::kArray, "array");
  const JsonValue& spans = doc.at("spans");
  std::set<std::string> root_names;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string where = "spans[" + std::to_string(i) + "]";
    check_span_node(spans.at(i), where);
    const std::string name = spans.at(i).at("name").as_string();
    require(root_names.insert(name).second,
            where + " duplicates root span \"" + name +
                "\" (mismatched open/close nesting)");
  }

  check_events(doc);
  const std::set<std::string> solvers = check_convergence(doc);
  check_cache(doc);
  check_health(doc);
  check_provenance(doc);
  check_memory(doc);
  // The quality block is per-bench opt-in (only control-loop benches have
  // an epoch structure to observe), so validate it wherever it appears.
  if (doc.has("quality")) check_quality(doc);
  // Likewise the serving block: only the serving bench carries it, but it
  // must validate wherever present (and E17 requires it below).
  if (doc.has("serving")) check_serving(doc);
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
  if (doc.has("attribution")) check_attribution(doc);
  if (doc.at("experiment").as_string() == "E12") {
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
  }
  if (doc.at("experiment").as_string() == "E16") {
    check_e16(doc);
    require(doc.has("attribution"), "E16 artifact is missing attribution");
    require(doc.at("events").at("events").size() > 0,
            "E16 artifact has no recorder events (controller instrumentation "
            "or SOR_TELEMETRY off)");
    // The control loop must have fed the health layer: solve-latency
    // quantiles and a congestion watermark.
    const JsonValue& sketches = doc.at("health").at("sketches");
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

  if (doc.at("experiment").as_string() == "E17") {
    require(doc.has("serving"), "E17 artifact is missing the serving block");
    require(doc.at("events").at("events").size() > 0,
            "E17 artifact has no recorder events (publish instrumentation "
            "or SOR_TELEMETRY off)");
  }

  std::printf("%s: ok (%zu spans, %zu counters, %zu recorder events)\n",
              path, spans.size(),
              doc.at("telemetry").at("counters").size(),
              doc.at("events").at("events").size());
  return 0;
}
