#pragma once

// Shared plumbing for the experiment binaries (E1–E15).
//
// Each bench prints:
//   * a banner naming the experiment and the paper claim it reproduces,
//   * an aligned table (the "figure/table" reproduction),
//   * a trailing CSV block for plotting,
// and writes a machine-readable artifact BENCH_<id>.json next to the
// binary's working directory, containing the table, the full telemetry
// registry snapshot, and the hierarchical span tree (per-stage wall-clock
// timings). See EXPERIMENTS.md for the artifact schema.
// Set SOR_BENCH_QUICK=1 to shrink trial counts (CI smoke mode).

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "core/evaluate.hpp"
#include "core/router.hpp"
#include "core/sampler.hpp"
#include "demand/demand.hpp"
#include "flow/mcf.hpp"
#include "telemetry/buildinfo.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/memory.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace sor::bench {

/// Bumped whenever the artifact gains or changes blocks; check_bench_json
/// enforces it. v2: added schema_version, the "events" flight-recorder
/// block, and the optional "attribution" block. v3: added the
/// "convergence" block (per-solve iteration traces, see
/// telemetry/observer.hpp) and the cost/<subsystem>/* accounting counters
/// inside "telemetry" (dropped in v9). v4: added the "cache" block
/// (artifact-cache hit/miss/eviction counters plus the enabled flag, see
/// src/cache/) — the warm-vs-cold fixture chain asserts on it.
// v5: added the "health" block (runtime health registry snapshot:
// quantile-sketch summaries with bucket counts, per-sketch watermarks
// (dropped in v9), epoch-windowed series (dropped in v10), recorder drop
// counters, and the SLO breach list + 0/1 status, see
// src/telemetry/metrics.hpp) — the SLO fixture chain and `sor_cli slo`
// evaluate it.
// v6: added the "provenance" block (compiler id/version, build type,
// flags, sanitize mode, build fingerprint, git describe — see
// src/telemetry/buildinfo.hpp) and the "memory" block (current/peak RSS
// plus per-subsystem live-bytes high-water marks, see
// src/telemetry/memory.hpp). Both key the run ledger (`sor_cli ledger
// append` / `trend`).
// v7: added the "quality" block (routing-quality observatory: sampled
// shadow-optimal regret series with p50/p95/max, per-epoch predictor
// MAPE + worst pair, activation/weight/top-path churn series — see
// src/engine/quality.hpp). Feeds `sor_cli quality` and the trend gate's
// regret_p95/predictor_mape metrics.
// v8: added the "serving" block (snapshot-swapped serving layer, see
// src/serve/: sustained lookups/sec and lookup-latency quantiles under
// concurrent epoch churn, torn-answer and byte-identity audit results,
// snapshot publish + demand-ingestion counters). E17 requires it.
// v9: one registry, one sketch type, one timer. "telemetry" holds only
// "counters" and "gauges" (the equal-width "histograms" map is gone; its
// signals are health sketches), no counter is named cost/... (solver
// cost is read from the spans block, and every span also feeds the
// health sketch "<span name>_seconds"), and "health" has no
// "watermarks" (each sketch's exact max is its watermark).
// v10: every registry signal has a reader. "health" keeps no per-epoch
// windows (its "rates" and "gauges" series and their epoch count are
// gone), and "telemetry" keeps only the counters and gauges something
// reads (lp/simplex_bytes; engine/ and router/last_congestion).
inline constexpr int kArtifactSchemaVersion = 10;

namespace detail {
// Captured at static initialization — close enough to process start for
// the wall_seconds figure in the artifact.
inline const std::chrono::steady_clock::time_point process_start =
    std::chrono::steady_clock::now();
}  // namespace detail

inline bool quick_mode() {
  const char* env = std::getenv("SOR_BENCH_QUICK");
  return env != nullptr && std::string(env) != "0";
}

inline std::size_t scaled(std::size_t full, std::size_t quick) {
  return quick_mode() ? quick : full;
}

/// Build provenance baked in by bench/CMakeLists.txt at configure time.
inline const char* git_describe() {
#ifdef SOR_GIT_DESCRIBE
  return SOR_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

/// Short experiment id parsed from the banner string: "E1: sparsity ..."
/// yields "E1". Falls back to the whole string (sanitized) if there is
/// no colon.
inline std::string short_id(const std::string& id_and_title) {
  const std::size_t colon = id_and_title.find(':');
  std::string id = colon == std::string::npos ? id_and_title
                                              : id_and_title.substr(0, colon);
  std::string out;
  for (char c : id) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-') {
      out.push_back(c);
    }
  }
  return out.empty() ? std::string("UNKNOWN") : out;
}

/// OPT congestion for a demand (primal value of the (1+ε)-MCF).
inline double opt_congestion(const Graph& g, const Demand& d,
                             double epsilon = 0.08) {
  SOR_SPAN("bench/opt_congestion");
  if (d.empty()) return 0;
  McfOptions options;
  options.epsilon = epsilon;
  return min_congestion_routing(g, d.commodities(), options).congestion;
}

/// Semi-oblivious congestion of a demand over a path system (MWU backend,
/// suitable for bench-sized instances).
inline double sor_congestion(const Graph& g, const PathSystem& ps,
                             const Demand& d, double epsilon = 0.05) {
  SOR_SPAN("bench/sor_congestion");
  RouterOptions options;
  options.backend = LpBackend::kMwu;
  options.epsilon = epsilon;
  const SemiObliviousRouter router(g, ps, options);
  return router.route_fractional(d).congestion;
}

/// Assembles the machine-readable artifact for one experiment run.
inline telemetry::JsonValue artifact_json(const std::string& id,
                                          const std::string& claim,
                                          const Table& table) {
  using telemetry::JsonValue;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    detail::process_start)
          .count();

  JsonValue doc = JsonValue::object();
  doc.set("schema_version", kArtifactSchemaVersion);
  doc.set("experiment", short_id(id));
  doc.set("title", id);
  doc.set("claim", claim);
  doc.set("git_describe", git_describe());
  doc.set("quick_mode", quick_mode());
  doc.set("wall_seconds", wall);

  JsonValue columns = JsonValue::array();
  for (const std::string& c : table.columns()) columns.push(c);
  JsonValue rows = JsonValue::array();
  for (const auto& row : table.rows()) {
    JsonValue cells = JsonValue::array();
    for (const std::string& cell : row) cells.push(cell);
    rows.push(std::move(cells));
  }
  JsonValue tbl = JsonValue::object();
  tbl.set("columns", std::move(columns));
  tbl.set("rows", std::move(rows));
  doc.set("table", std::move(tbl));

  doc.set("telemetry", telemetry::registry_to_json());
  doc.set("spans", telemetry::spans_to_json());
  doc.set("events", telemetry::recorder_to_json());
  doc.set("convergence", telemetry::convergence_to_json());

  // v4: routing-artifact cache counters. Read from the cache's own stats
  // (not the telemetry registry) so the block survives SOR_TELEMETRY=off.
  const cache::CacheStats cache_stats = cache::ArtifactCache::global().stats();
  JsonValue cache_block = JsonValue::object();
  cache_block.set("enabled", cache::ArtifactCache::enabled());
  cache_block.set("hits", cache_stats.hits);
  cache_block.set("misses", cache_stats.misses);
  cache_block.set("disk_hits", cache_stats.disk_hits);
  cache_block.set("puts", cache_stats.puts);
  cache_block.set("evictions", cache_stats.evictions);
  cache_block.set("corrupt", cache_stats.corrupt);
  cache_block.set("bytes", cache_stats.bytes);
  cache_block.set("entries", cache_stats.entries);
  doc.set("cache", std::move(cache_block));

  // v5: runtime health snapshot (sketch quantiles, recorder drops, SLO
  // breaches). Carries enabled=false with empty contents under
  // SOR_TELEMETRY=off.
  doc.set("health", telemetry::health_to_json());

  // v6: build provenance (configure-time compiler identity plus the
  // git describe baked into this binary) and the memory figures (RSS is
  // kernel state, so the block is meaningful under SOR_TELEMETRY=off
  // too; the subsystem map is whatever the run charged).
  doc.set("provenance", telemetry::build_info_json(git_describe()));
  doc.set("memory", telemetry::memory_to_json());
  return doc;
}

/// Writes `doc` to `path` atomically (temp file + rename), so a crashed or
/// concurrent bench never leaves a truncated artifact for the schema
/// checker to trip over. Returns false (after logging a warning) on any
/// I/O failure; bench main()s propagate that as a nonzero exit.
inline bool write_artifact(const std::string& path,
                           const telemetry::JsonValue& doc) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) {
      SOR_LOG(kWarn) << "bench artifact: cannot open " << tmp
                     << " for writing";
      return false;
    }
    out << doc.dump(2) << "\n";
    out.flush();
    if (!out) {
      SOR_LOG(kWarn) << "bench artifact: write to " << tmp << " failed";
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SOR_LOG(kWarn) << "bench artifact: rename " << tmp << " -> " << path
                   << " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// Prints the table and its CSV twin, then writes BENCH_<id>.json
/// atomically. `extra_blocks` lets an experiment append extension blocks
/// (E16's "e16" series, "attribution") to the standard artifact. Returns
/// false when the artifact could not be written — bench main()s return
/// `emit(...) ? 0 : 1` so CI notices.
inline bool emit(
    const std::string& id, const std::string& claim, const Table& table,
    std::vector<std::pair<std::string, telemetry::JsonValue>> extra_blocks =
        {}) {
  print_banner(std::cout, id, claim);
  table.print(std::cout);
  std::cout << "\ncsv:\n";
  table.print_csv(std::cout);

  telemetry::JsonValue doc = artifact_json(id, claim, table);
  for (auto& [key, block] : extra_blocks) doc.set(key, std::move(block));

  const std::string artifact = "BENCH_" + short_id(id) + ".json";
  const bool ok = write_artifact(artifact, doc);
  if (ok) {
    std::cout << "\nartifact: " << artifact << "\n";
  } else {
    std::cout << "\nartifact: FAILED to write " << artifact << "\n";
  }
  std::cout.flush();
  return ok;
}

}  // namespace sor::bench
