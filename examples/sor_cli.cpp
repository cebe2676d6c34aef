// sor_cli — run the semi-oblivious routing pipeline on your own network.
//
// Usage:
//   sor_cli --graph <edge-list file> [--demand <demand file>] [options]
//   sor_cli engine run    [engine options]
//   sor_cli engine replay --record FILE [--digest FILE] [--trace]
//   sor_cli monitor       [engine-run options]
//   sor_cli serve-bench   [engine-run options] [serve options]
//   sor_cli slo BENCH_x.json [--slo-config FILE]
//   sor_cli report BENCH_x.json
//   sor_cli diff OLD.json NEW.json [diff options]
//   sor_cli ledger append LEDGER.jsonl BENCH_x.json [ledger options]
//   sor_cli ledger ls LEDGER.jsonl
//   sor_cli trend LEDGER.jsonl [trend options]
//
// Options:
//   --graph FILE      edge-list graph: first line "<n>", then "u v [cap]"
//   --demand FILE     demand file: "s t amount" lines; default: gravity
//   --k N             sampled paths per pair            (default 4)
//   --source NAME     racke | ksp | electrical | sp     (default racke)
//   --seed N          RNG seed threaded through every random component
//                     (sampling, rounding, simulation, trace generation,
//                     demand stream) so runs reproduce bit-for-bit
//   --integral        round to one path per demand unit and simulate
//   --dump-paths FILE write the installed path system as vertex lists
//   --trace           print the hierarchical span-timing tree at exit
//   --trace-out FILE  write a Chrome trace-event JSON (chrome://tracing /
//                     Perfetto) of the run; force-enables telemetry and
//                     timeline mode (also valid on `engine run|replay`)
//
// Engine options (sor_cli engine run):
//   --wan NAME        abilene | b4 | geant (default abilene), or --graph FILE
//   --epochs N        control-loop length                (default 32)
//   --k/--source/--seed as above (source: racke | ksp | sp)
//   --predictor NAME  ewma | peak                        (default ewma)
//   --backend NAME    mwu | exact                        (default mwu)
//   --churn-budget N  per-epoch path install budget      (default 8)
//   --cold            disable warm-started re-solves
//   --solve-deadline-ms N  per-epoch solve budget; a solve that exceeds it
//                     is truncated at a feasible point ("trunc" column,
//                     engine/solve_truncated recorder event). 0 = none
//   --record FILE     save the run record (trace + config) for replay
//   --digest FILE     write the deterministic run digest (JSON)
//   --slo-config FILE JSON health bounds (max_congestion, solve_p99_ms,
//                     min_cache_hit_rate, max_regret, max_predictor_mape);
//                     breaches print after the run and flip the exit code
//                     to the health status
//   --prom-out FILE   write a Prometheus text-exposition snapshot of the
//                     full telemetry + health state at exit
//   --shadow-every N  routing-quality observatory: run the shadow-optimal
//                     MCF on the realized matrix every N epochs and track
//                     the regret ratio (0 = off). Deterministic, but NOT
//                     stored in the record — pass it to replay again
//   --quality-out FILE  write the run's quality block (regret, predictor
//                     error, churn series) as JSON; byte-identical under
//                     record/replay with the same --shadow-every
//
// Serving (sor_cli serve-bench):
//   runs the engine with the snapshot-swapped serving layer attached:
//   N reader threads answer (src, dst) lookups from the RCU-published
//   RouteSnapshots while the control loop re-solves and publishes each
//   epoch. Prints lookups/sec, latency quantiles, and the torn-table
//   audit; exits 1 on any torn answer or snapshot/route_fractional
//   byte mismatch. Takes every engine-run flag, plus:
//   --readers N       concurrent lookup threads           (default 4)
//   --lookups N       min lookups per reader              (default 2000)
//   --update-every N  enqueue a demand update every N lookups (0 = off;
//                     updates fold into the next epoch's realized matrix)
//   --update-amount X demand delta per update             (default 1.0)
//
// Health tooling:
//   sor_cli monitor [engine-run options]
//                                 live control loop: one health row per
//                                 epoch (congestion + watermark, solve
//                                 p50/p95/p99, cache hit rate, peak RSS,
//                                 recorder drops, breaches) as it runs;
//                                 exits with the run's health status
//     --health-jsonl FILE         append one JSONL health snapshot per
//                                 epoch (telemetry::epoch_health_json)
//   sor_cli slo BENCH_x.json [--slo-config FILE]
//                                 offline SLO check of an artifact: reports
//                                 run-time breaches and applies the
//                                 config's bounds to the artifact's ledger
//                                 summary (congestion watermark, solve
//                                 p99, cache hit rate, worst regret, worst
//                                 predictor MAPE); exits nonzero on any
//                                 violation
//
// Artifact tooling:
//   sor_cli report BENCH_x.json   the one view of an artifact, each block
//                                 once: header, table, per-span cost,
//                                 convergence traces, health, memory,
//                                 bottleneck links, flight recorder, and
//                                 the per-epoch quality observatory
//   sor_cli diff OLD NEW          regression check between two artifacts
//                                 of the same experiment; exits 1 when a
//                                 metric regressed beyond threshold, 2
//                                 when the artifacts are not comparable
//     --congestion-threshold X    relative congestion slack  (default 0.02)
//     --span-threshold X          relative time slack        (default 0.50)
//     --span-min-seconds X        time-metric noise floor    (default 0.05)
//
// Run ledger / trend gate:
//   sor_cli ledger append LEDGER.jsonl BENCH_x.json
//                                 append the artifact's stable summary
//                                 (keyed by bench id, config digest, build
//                                 fingerprint) as one JSONL record
//     --git-sha SHA               provenance stamp (default "unknown" —
//                                 the ledger never samples git itself)
//     --timestamp TS              provenance stamp (default "unknown")
//     --note TEXT                 free-form provenance note
//     --scale-metric NAME=FACTOR  multiply one summary metric before
//                                 appending (synthetic-regression aid for
//                                 testing the trend gate)
//   sor_cli ledger ls LEDGER.jsonl
//                                 list records (corrupt lines are skipped
//                                 and counted, never fatal)
//   sor_cli trend LEDGER.jsonl [--bench ID] [--window N] [--threshold X]
//                              [--mad-factor X]
//                                 robust per-metric trend over the trailing
//                                 window (median + MAD baseline); exits 1
//                                 when the latest run regressed, 2 when
//                                 the ledger is unusable
//
// Prints the installed system's statistics, the achieved congestion, the
// offline optimum, and the competitive ratio; `engine run` prints the
// per-epoch control-loop report instead.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "core/attribution.hpp"
#include "core/evaluate.hpp"
#include "core/router.hpp"
#include "core/sampler.hpp"
#include "demand/generators.hpp"
#include "demand/io.hpp"
#include "engine/replay.hpp"
#include "serve/loadgen.hpp"
#include "graph/io.hpp"
#include "oblivious/electrical.hpp"
#include "oblivious/ksp.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/shortest_path.hpp"
#include "sim/packet_sim.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/export.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

struct Args {
  std::string graph_path;
  std::string demand_path;
  std::string dump_paths;
  std::string trace_out;
  std::string source = "racke";
  std::size_t k = 4;
  std::uint64_t seed = 1;
  bool integral = false;
  bool trace = false;
};

/// --trace-out: the flag is an explicit opt-in, so it force-enables the
/// telemetry kill switch and timeline mode before any span runs.
void enable_timeline_capture() {
  sor::telemetry::set_enabled(true);
  sor::telemetry::set_timeline_enabled(true);
}

bool write_trace_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write trace to " << path << "\n";
    return false;
  }
  os << sor::telemetry::chrome_trace_json().dump(2) << "\n";
  std::cout << "wrote Chrome trace to " << path
            << " (open in chrome://tracing or Perfetto)\n";
  return true;
}

std::optional<sor::telemetry::JsonValue> load_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "error: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return sor::telemetry::JsonValue::parse(buf.str());
  } catch (const std::exception& e) {
    std::cerr << "error: " << path << " is not valid JSON: " << e.what()
              << "\n";
    return std::nullopt;
  }
}

// Numeric flag parsing: raw std::stoull/std::stod name no flag when they
// throw, accept trailing garbage, and stoull wraps "-1" silently to
// 2^64-1. Every numeric flag goes through these two instead: a bad value
// prints WHICH flag was bad and exits 2, the CLI's usage-error code.

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  std::size_t pos = 0;
  try {
    if (text.empty() || text[0] == '-' || text[0] == '+') throw 0;
    v = std::stoull(text, &pos);
    if (pos != text.size()) throw 0;
  } catch (...) {
    std::cerr << "error: " << flag << " wants a non-negative integer, got \""
              << text << "\"\n";
    std::exit(2);
  }
  return v;
}

double parse_f64(const std::string& flag, const std::string& text) {
  double v = 0;
  std::size_t pos = 0;
  try {
    v = std::stod(text, &pos);
    if (pos != text.size() || !std::isfinite(v)) throw 0;
  } catch (...) {
    std::cerr << "error: " << flag << " wants a finite number, got \"" << text
              << "\"\n";
    std::exit(2);
  }
  return v;
}

int report_main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: sor_cli report BENCH_x.json\n";
    return 2;
  }
  const auto doc = load_json(argv[2]);
  if (!doc) return 2;
  sor::telemetry::render_artifact(*doc, std::cout);
  return 0;
}

int diff_main(int argc, char** argv) {
  sor::telemetry::ArtifactDiffOptions options;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--congestion-threshold") {
      options.congestion_threshold = parse_f64(flag, value());
    } else if (flag == "--span-threshold") {
      options.span_threshold = parse_f64(flag, value());
    } else if (flag == "--span-min-seconds") {
      options.span_min_seconds = parse_f64(flag, value());
    } else {
      paths.push_back(flag);
    }
  }
  if (paths.size() != 2) {
    std::cerr << "usage: sor_cli diff OLD.json NEW.json "
                 "[--congestion-threshold X] [--span-threshold X] "
                 "[--span-min-seconds X]\n";
    return 2;
  }
  const auto before = load_json(paths[0]);
  const auto after = load_json(paths[1]);
  if (!before || !after) return 2;
  sor::telemetry::render_build_line(*before, "old ", std::cout);
  sor::telemetry::render_build_line(*after, "new ", std::cout);
  const sor::telemetry::ArtifactDiffResult result =
      sor::telemetry::diff_artifacts(*before, *after, options);
  sor::telemetry::render_artifact_diff(result, std::cout);
  if (!result.comparable()) return 2;
  return result.regressed() ? 1 : 0;
}

int ledger_main(int argc, char** argv) {
  const auto ledger_usage = []() {
    std::cerr << "usage: sor_cli ledger append LEDGER.jsonl BENCH_x.json "
                 "[--git-sha SHA] [--timestamp TS] [--note TEXT] "
                 "[--scale-metric NAME=FACTOR]\n"
                 "       sor_cli ledger ls LEDGER.jsonl\n";
    return 2;
  };
  if (argc < 3) return ledger_usage();
  const std::string sub = argv[2];
  if (sub == "ls") {
    if (argc != 4) return ledger_usage();
    const sor::telemetry::LedgerReadResult ledger =
        sor::telemetry::read_ledger_file(argv[3]);
    sor::telemetry::render_ledger(ledger, std::cout);
    return 0;
  }
  if (sub != "append") return ledger_usage();

  std::string ledger_path;
  std::string artifact_path;
  sor::telemetry::LedgerProvenance provenance;
  std::vector<std::pair<std::string, double>> scales;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--git-sha") {
      provenance.git_sha = value();
    } else if (flag == "--timestamp") {
      provenance.timestamp = value();
    } else if (flag == "--note") {
      provenance.note = value();
    } else if (flag == "--scale-metric") {
      const std::string spec = value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "error: --scale-metric wants NAME=FACTOR, got " << spec
                  << "\n";
        return 2;
      }
      scales.emplace_back(spec.substr(0, eq),
                          parse_f64(flag, spec.substr(eq + 1)));
    } else if (ledger_path.empty()) {
      ledger_path = flag;
    } else if (artifact_path.empty()) {
      artifact_path = flag;
    } else {
      return ledger_usage();
    }
  }
  if (ledger_path.empty() || artifact_path.empty()) return ledger_usage();

  const auto doc = load_json(artifact_path);
  if (!doc) return 2;
  sor::telemetry::LedgerRecord record =
      sor::telemetry::summarize_artifact(*doc, provenance);
  for (const auto& [name, factor] : scales) {
    const auto it = record.metrics.find(name);
    if (it == record.metrics.end()) {
      std::cerr << "error: --scale-metric " << name
                << " is not in the summary (have:";
      for (const auto& [have, unused] : record.metrics) {
        std::cerr << " " << have;
      }
      std::cerr << ")\n";
      return 2;
    }
    it->second *= factor;
  }
  if (!sor::telemetry::append_record(ledger_path, record)) {
    std::cerr << "error: cannot append to " << ledger_path << "\n";
    return 1;
  }
  std::cout << "appended " << record.bench << " (config "
            << record.config_digest << ", build " << record.build << ", "
            << record.metrics.size() << " metric(s)) to " << ledger_path
            << "\n";
  return 0;
}

int trend_main(int argc, char** argv) {
  std::string ledger_path;
  std::string bench;
  sor::telemetry::TrendOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--bench") {
      bench = value();
    } else if (flag == "--window") {
      options.window = parse_u64(flag, value());
    } else if (flag == "--threshold") {
      options.threshold = parse_f64(flag, value());
    } else if (flag == "--mad-factor") {
      options.mad_factor = parse_f64(flag, value());
    } else if (ledger_path.empty()) {
      ledger_path = flag;
    } else {
      std::cerr << "usage: sor_cli trend LEDGER.jsonl [--bench ID] "
                   "[--window N] [--threshold X] [--mad-factor X]\n";
      return 2;
    }
  }
  if (ledger_path.empty() || options.window < 2) {
    std::cerr << "usage: sor_cli trend LEDGER.jsonl [--bench ID] "
                 "[--window N (>= 2)] [--threshold X] [--mad-factor X]\n";
    return 2;
  }
  const sor::telemetry::LedgerReadResult ledger =
      sor::telemetry::read_ledger_file(ledger_path);
  sor::telemetry::TrendReport report =
      sor::telemetry::analyze_trend(ledger.records, options, bench);
  report.corrupt_lines = ledger.corrupt_lines;
  sor::telemetry::render_trend(report, std::cout);
  if (!report.usable()) return 2;
  return report.regressed() ? 1 : 0;
}

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: sor_cli --graph FILE [--demand FILE] [--k N] "
               "[--source racke|ksp|electrical|sp] [--seed N] [--integral] "
               "[--dump-paths FILE] [--trace] [--trace-out FILE] "
               "[--cache-dir DIR]\n"
               "       sor_cli engine run|replay [options]\n"
               "       sor_cli monitor [engine-run options]\n"
               "       sor_cli serve-bench [engine-run options] "
               "[--readers N] [--lookups N] [--update-every N] "
               "[--update-amount X]\n"
               "       sor_cli slo BENCH_x.json [--slo-config FILE]\n"
               "       sor_cli report BENCH_x.json\n"
               "       sor_cli diff OLD.json NEW.json [options]\n"
               "       sor_cli ledger append LEDGER.jsonl BENCH_x.json "
               "[options]\n"
               "       sor_cli ledger ls LEDGER.jsonl\n"
               "       sor_cli trend LEDGER.jsonl [options]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--graph") {
      args.graph_path = value();
    } else if (flag == "--demand") {
      args.demand_path = value();
    } else if (flag == "--k") {
      args.k = parse_u64(flag, value());
    } else if (flag == "--source") {
      args.source = value();
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value());
    } else if (flag == "--integral") {
      args.integral = true;
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--dump-paths") {
      args.dump_paths = value();
    } else if (flag == "--cache-dir") {
      // Persistent artifact cache: Räcke ensembles and sampled path
      // systems round-trip through DIR across invocations.
      sor::cache::ArtifactCache::global().set_directory(value());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.graph_path.empty()) usage("--graph is required");
  if (args.k == 0) usage("--k must be positive");
  return args;
}

std::unique_ptr<sor::ObliviousRouting> make_source(const std::string& name,
                                                   const sor::Graph& g,
                                                   std::uint64_t seed) {
  if (name == "racke") {
    sor::RaeckeOptions options;
    options.seed = seed;
    return std::make_unique<sor::RaeckeRouting>(g, options);
  }
  if (name == "ksp") return std::make_unique<sor::KspRouting>(g, 8);
  if (name == "electrical") {
    return std::make_unique<sor::ElectricalRouting>(g);
  }
  if (name == "sp") return std::make_unique<sor::ShortestPathRouting>(g);
  usage(("unknown source " + name).c_str());
}

[[noreturn]] void engine_usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: sor_cli engine run [--wan abilene|b4|geant] "
               "[--graph FILE] [--k N] [--source racke|ksp|sp] [--seed N] "
               "[--epochs N] [--predictor ewma|peak] [--backend mwu|exact] "
               "[--churn-budget N] [--cold] [--solve-deadline-ms N] "
               "[--record FILE] [--digest FILE] [--slo-config FILE] "
               "[--prom-out FILE] [--shadow-every N] [--quality-out FILE] "
               "[--trace] [--cache-dir DIR]\n"
               "       sor_cli engine replay --record FILE [--digest FILE] "
               "[--shadow-every N] [--quality-out FILE] [--trace]\n"
               "       sor_cli monitor [engine-run options] "
               "[--health-jsonl FILE]\n";
  std::exit(2);
}

/// Everything `engine run|replay` and `monitor` parse from the command
/// line: the run config plus output/health side channels.
struct EngineCli {
  sor::engine::EngineRunConfig config;
  std::string record_path;
  std::string digest_path;
  std::string trace_out;
  std::string slo_config_path;
  std::string prom_out;
  std::string health_jsonl;
  std::string quality_out;
  bool trace_spans = false;
};

/// Parses engine flags starting at argv[start] ("engine run" parses from
/// index 3, "monitor" from index 2 — same flag set either way).
EngineCli parse_engine_flags(int argc, char** argv, int start) {
  EngineCli cli;
  for (int i = start; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) engine_usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--wan") {
      cli.config.topology = "wan:" + value();
    } else if (flag == "--graph") {
      cli.config.topology = "file:" + value();
    } else if (flag == "--k") {
      cli.config.k = parse_u64(flag, value());
    } else if (flag == "--source") {
      cli.config.source = value();
    } else if (flag == "--seed") {
      cli.config.seed = parse_u64(flag, value());
    } else if (flag == "--epochs") {
      cli.config.trace.num_epochs = parse_u64(flag, value());
    } else if (flag == "--predictor") {
      const std::string v = value();
      if (v == "ewma") {
        cli.config.engine.predictor = sor::engine::PredictorKind::kEwma;
      } else if (v == "peak") {
        cli.config.engine.predictor = sor::engine::PredictorKind::kPeak;
      } else {
        engine_usage(("unknown predictor " + v).c_str());
      }
    } else if (flag == "--backend") {
      const std::string v = value();
      if (v == "mwu") {
        cli.config.engine.backend = sor::engine::EngineBackend::kMwu;
      } else if (v == "exact") {
        cli.config.engine.backend = sor::engine::EngineBackend::kExact;
      } else {
        engine_usage(("unknown backend " + v).c_str());
      }
    } else if (flag == "--churn-budget") {
      cli.config.engine.repair.churn_budget = parse_u64(flag, value());
    } else if (flag == "--cold") {
      cli.config.engine.warm_start = false;
    } else if (flag == "--solve-deadline-ms") {
      cli.config.engine.solve_deadline_ms =
          static_cast<double>(parse_u64(flag, value()));
    } else if (flag == "--shadow-every") {
      cli.config.engine.quality.shadow_every = parse_u64(flag, value());
    } else if (flag == "--quality-out") {
      cli.quality_out = value();
    } else if (flag == "--record") {
      cli.record_path = value();
    } else if (flag == "--digest") {
      cli.digest_path = value();
    } else if (flag == "--slo-config") {
      cli.slo_config_path = value();
    } else if (flag == "--prom-out") {
      cli.prom_out = value();
    } else if (flag == "--health-jsonl") {
      cli.health_jsonl = value();
    } else if (flag == "--trace") {
      cli.trace_spans = true;
    } else if (flag == "--trace-out") {
      cli.trace_out = value();
    } else if (flag == "--cache-dir") {
      sor::cache::ArtifactCache::global().set_directory(value());
    } else {
      engine_usage(("unknown flag " + flag).c_str());
    }
  }
  if (!cli.slo_config_path.empty()) {
    cli.config.engine.slo =
        sor::telemetry::load_slo_config(cli.slo_config_path);
  }
  return cli;
}

void print_breaches(const std::vector<sor::telemetry::SloBreach>& breaches) {
  for (const sor::telemetry::SloBreach& b : breaches) {
    std::cout << "SLO BREACH  epoch " << b.epoch << "  " << b.slo
              << "  observed " << sor::telemetry::format_quantity(b.value)
              << "  budget " << sor::telemetry::format_quantity(b.budget)
              << "\n";
  }
}

/// --prom-out: a final text-exposition snapshot, written at exit so it
/// sees the whole run. Returns false (after logging) on I/O failure.
bool write_prom_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write Prometheus snapshot to " << path
              << "\n";
    return false;
  }
  sor::telemetry::write_prometheus(os);
  std::cout << "wrote Prometheus snapshot to " << path << "\n";
  return true;
}

void print_engine_result(const sor::engine::EngineRunRecord& record,
                         const sor::engine::ControlLoopResult& result) {
  sor::Table table({"epoch", "events", "fail", "pred_err", "regret",
                    "congestion", "warm", "phases", "trunc", "churn",
                    "solve_ms"});
  for (const sor::engine::EpochReport& r : result.epochs) {
    table.add_row(
        {sor::Table::fmt_int(static_cast<long long>(r.epoch)),
         sor::Table::fmt_int(static_cast<long long>(r.events)),
         sor::Table::fmt_int(static_cast<long long>(r.active_failures)),
         sor::Table::fmt(r.prediction_error, 4),
         r.quality.shadow_sampled ? sor::Table::fmt(r.quality.regret, 4)
                                  : std::string("-"),
         sor::Table::fmt(r.congestion, 4),
         std::string(r.warm_accepted ? "yes" : "no"),
         sor::Table::fmt_int(static_cast<long long>(r.phases)),
         std::string(r.truncated ? "yes" : "no"),
         sor::Table::fmt_int(static_cast<long long>(r.repair.churn())),
         sor::Table::fmt(r.solve_ms, 2)});
  }
  table.print(std::cout);
  std::cout << "epochs: " << result.epochs.size()
            << ", events: " << record.trace.events.size()
            << ", warm accepts: " << result.warm_accepts
            << ", total churn: " << result.total_churn << "\n";
  std::cout << "congestion p50/p95/max: " << result.congestion_summary.p50
            << " / " << result.congestion_summary.p95 << " / "
            << result.congestion_summary.max << "\n";
  std::cout << "prediction error mean: "
            << result.prediction_error_summary.mean << "\n";
  if (result.shadow_solves > 0) {
    std::cout << "regret p50/p95/max: " << result.regret_summary.p50 << " / "
              << result.regret_summary.p95 << " / "
              << result.regret_summary.max << " (" << result.shadow_solves
              << " shadow solves)\n";
    std::cout << "predictor mape mean: "
              << result.predictor_mape_summary.mean << "\n";
  }
  std::cout << "total solve time: " << result.total_solve_ms << " ms\n";
}

/// --quality-out: the run's quality block as pretty-printed JSON. Pure
/// function of the deterministic run, so record/replay reruns with the
/// same --shadow-every write byte-identical files (the fixture compares
/// them directly).
bool write_quality_out(const std::string& path,
                       const sor::engine::ControlLoopResult& result,
                       const sor::engine::QualityOptions& options) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write quality block to " << path << "\n";
    return false;
  }
  os << sor::engine::quality_to_json(result, options).dump(2) << "\n";
  std::cout << "wrote quality block to " << path << "\n";
  return true;
}

void write_digest(const std::string& path,
                  const sor::engine::EngineRunRecord& record,
                  const sor::engine::ControlLoopResult& result) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write digest to " << path << "\n";
    std::exit(1);
  }
  os << sor::engine::digest_json(record, result).dump(2) << "\n";
  std::cout << "wrote digest to " << path << "\n";
}

int engine_main(int argc, char** argv) {
  if (argc < 3) engine_usage("engine needs a subcommand: run | replay");
  const std::string sub = argv[2];
  EngineCli cli = parse_engine_flags(argc, argv, 3);
  if (!cli.trace_out.empty()) enable_timeline_capture();

  int health_status = 0;
  if (sub == "run") {
    if (cli.config.k == 0) engine_usage("--k must be positive");
    if (cli.config.trace.num_epochs == 0) {
      engine_usage("--epochs must be positive");
    }
    const sor::engine::EngineRunOutput out =
        sor::engine::run_from_config(cli.config);
    print_engine_result(out.record, out.result);
    print_breaches(out.result.breaches);
    health_status = out.result.health_status;
    if (!cli.record_path.empty()) {
      std::ofstream os(cli.record_path);
      if (!os) {
        std::cerr << "error: cannot write record to " << cli.record_path
                  << "\n";
        return 1;
      }
      sor::engine::save_record(out.record, os);
      std::cout << "wrote run record to " << cli.record_path << "\n";
    }
    if (!cli.digest_path.empty()) {
      write_digest(cli.digest_path, out.record, out.result);
    }
    if (!cli.quality_out.empty() &&
        !write_quality_out(cli.quality_out, out.result,
                           cli.config.engine.quality)) {
      return 1;
    }
  } else if (sub == "replay") {
    if (cli.record_path.empty()) engine_usage("replay requires --record FILE");
    std::ifstream is(cli.record_path);
    if (!is) {
      std::cerr << "error: cannot read record " << cli.record_path << "\n";
      return 1;
    }
    sor::engine::EngineRunRecord record = sor::engine::load_record(is);
    // The SLO config and quality options ride the command line, not the
    // record (neither is a replay-record field), so a replay can be
    // re-checked under new bounds and re-run the same shadow sampling.
    record.config.engine.slo = cli.config.engine.slo;
    record.config.engine.quality = cli.config.engine.quality;
    const sor::engine::ControlLoopResult result =
        sor::engine::replay_record(record);
    print_engine_result(record, result);
    print_breaches(result.breaches);
    health_status = result.health_status;
    if (!cli.digest_path.empty()) write_digest(cli.digest_path, record, result);
    if (!cli.quality_out.empty() &&
        !write_quality_out(cli.quality_out, result,
                           record.config.engine.quality)) {
      return 1;
    }
  } else {
    engine_usage(("unknown engine subcommand " + sub).c_str());
  }
  if (cli.trace_spans) {
    std::cout << "\nspan timings:\n" << sor::telemetry::span_tree_text();
  }
  if (!cli.trace_out.empty() && !write_trace_out(cli.trace_out)) return 1;
  if (!cli.prom_out.empty() && !write_prom_out(cli.prom_out)) return 1;
  // With an SLO config in force the run is a health check: exit nonzero
  // on any breach (0 or absent config keeps the old exit semantics).
  return health_status;
}

/// `sor_cli monitor` — a live engine run: the standard control loop with
/// one health row printed per epoch as it completes, so an operator
/// watches congestion, solve-latency quantiles, and breaches in flight
/// instead of post-hoc. Exits with the run's health status.
int monitor_main(int argc, char** argv) {
  EngineCli cli = parse_engine_flags(argc, argv, 2);
  if (cli.config.k == 0) engine_usage("--k must be positive");
  if (cli.config.trace.num_epochs == 0) {
    engine_usage("--epochs must be positive");
  }
  if (!cli.trace_out.empty()) enable_timeline_capture();

  std::ofstream jsonl;
  if (!cli.health_jsonl.empty()) {
    jsonl.open(cli.health_jsonl, std::ios::app);
    if (!jsonl) {
      std::cerr << "error: cannot write health JSONL to " << cli.health_jsonl
                << "\n";
      return 2;
    }
  }

  using sor::telemetry::format_quantity;
  using sor::telemetry::format_seconds;
  std::cout << std::left << std::setw(7) << "epoch" << std::right
            << std::setw(11) << "congestion" << std::setw(11) << "watermark"
            << std::setw(9) << "regret" << std::setw(9) << "mape"
            << std::setw(11) << "p50" << std::setw(11) << "p95"
            << std::setw(11) << "p99" << std::setw(10) << "cache"
            << std::setw(10) << "rss" << std::setw(9) << "dropped"
            << std::setw(9) << "breach" << "\n";
  const auto on_epoch = [&](const sor::engine::EpochReport& r) {
    const sor::engine::EpochHealth& h = r.health;
    std::cout << std::left << std::setw(7) << r.epoch << std::right
              << std::setw(11) << sor::Table::fmt(r.congestion, 4)
              << std::setw(11) << sor::Table::fmt(h.congestion_watermark, 4)
              << std::setw(9)
              << (r.quality.shadow_sampled
                      ? sor::Table::fmt(r.quality.regret, 3)
                      : std::string("-"))
              << std::setw(9)
              << (r.quality.predictor_mape >= 0
                      ? sor::Table::fmt(r.quality.predictor_mape, 3)
                      : std::string("-"))
              << std::setw(11) << format_seconds(h.solve_p50_ms / 1e3)
              << std::setw(11) << format_seconds(h.solve_p95_ms / 1e3)
              << std::setw(11) << format_seconds(h.solve_p99_ms / 1e3)
              << std::setw(10)
              << (h.cache_hit_rate < 0 ? std::string("-")
                                       : sor::Table::fmt(h.cache_hit_rate, 2))
              << std::setw(10)
              << (h.peak_rss_bytes == 0
                      ? std::string("-")
                      : format_quantity(
                            static_cast<double>(h.peak_rss_bytes)) +
                            "B")
              << std::setw(9) << h.recorder_dropped << std::setw(9)
              << h.breaches << "\n";
    std::cout.flush();
    if (jsonl.is_open()) {
      jsonl << sor::telemetry::epoch_health_json(r.epoch).dump(0) << "\n";
      jsonl.flush();
    }
  };

  const sor::engine::EngineRunOutput out =
      sor::engine::run_from_config(cli.config, on_epoch);
  std::cout << "epochs: " << out.result.epochs.size()
            << ", congestion p50/p95/max: "
            << out.result.congestion_summary.p50 << " / "
            << out.result.congestion_summary.p95 << " / "
            << out.result.congestion_summary.max << "\n";
  print_breaches(out.result.breaches);
  std::cout << "health: "
            << (out.result.health_status == 0 ? "OK" : "BREACHED") << "\n";
  if (jsonl.is_open()) {
    std::cout << "wrote per-epoch health JSONL to " << cli.health_jsonl
              << "\n";
  }
  if (cli.trace_spans) {
    std::cout << "\nspan timings:\n" << sor::telemetry::span_tree_text();
  }
  if (!cli.trace_out.empty() && !write_trace_out(cli.trace_out)) return 1;
  if (!cli.prom_out.empty() && !write_prom_out(cli.prom_out)) return 1;
  return out.result.health_status;
}

/// `sor_cli serve-bench` — the TE-as-a-service smoke bench: drives the
/// standard engine run with a RouteService attached while N reader
/// threads answer (src, dst) lookups from the RCU-published snapshots,
/// then prints throughput, lookup-latency quantiles, and the torn-table
/// audit. Exits 1 if any reader ever saw an answer that matched no
/// published epoch (the snapshot-swap contract) or if the published
/// bootstrap snapshot is not byte-identical to route_fractional on the
/// same matrix.
int serve_bench_main(int argc, char** argv) {
  sor::serve::ServeLoadOptions load;
  // Serve flags are peeled off here; everything else is the engine-run
  // flag set, handed to parse_engine_flags unchanged.
  std::vector<char*> rest = {argv[0], argv[1]};
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) engine_usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--readers") {
      load.readers = parse_u64(flag, value());
    } else if (flag == "--lookups") {
      load.min_lookups_per_reader = parse_u64(flag, value());
    } else if (flag == "--update-every") {
      load.update_every = parse_u64(flag, value());
    } else if (flag == "--update-amount") {
      load.update_amount = parse_f64(flag, value());
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (load.readers == 0) engine_usage("--readers must be positive");
  EngineCli cli =
      parse_engine_flags(static_cast<int>(rest.size()), rest.data(), 2);
  if (cli.config.k == 0) engine_usage("--k must be positive");
  if (cli.config.trace.num_epochs == 0) {
    engine_usage("--epochs must be positive");
  }

  const sor::Graph g = sor::engine::build_topology(cli.config.topology);
  const sor::PathSystem system =
      sor::engine::build_path_system(g, cli.config);
  const sor::engine::EventTrace trace =
      sor::engine::generate_trace(g, cli.config.trace, cli.config.seed);
  const sor::serve::ServeLoadReport report = sor::serve::run_serve_load(
      g, system, trace, cli.config.stream, cli.config.engine,
      cli.config.seed, load);

  sor::Table table({"metric", "value"});
  const auto row = [&](const std::string& name, const std::string& v) {
    table.add_row({name, v});
  };
  row("readers", sor::Table::fmt_int(static_cast<long long>(report.readers)));
  row("epochs",
      sor::Table::fmt_int(static_cast<long long>(report.result.epochs.size())));
  row("snapshots published",
      sor::Table::fmt_int(static_cast<long long>(report.snapshots_published)));
  row("lookups",
      sor::Table::fmt_int(static_cast<long long>(report.lookups)));
  row("misses", sor::Table::fmt_int(static_cast<long long>(report.misses)));
  row("torn answers",
      sor::Table::fmt_int(static_cast<long long>(report.torn)));
  row("lookups/sec", sor::Table::fmt(report.lookups_per_sec, 0));
  row("lookup p50 us", sor::Table::fmt(report.p50_us, 3));
  row("lookup p95 us", sor::Table::fmt(report.p95_us, 3));
  row("lookup p99 us", sor::Table::fmt(report.p99_us, 3));
  row("lookup max us", sor::Table::fmt(report.max_us, 3));
  row("updates enqueued",
      sor::Table::fmt_int(static_cast<long long>(report.updates_enqueued)));
  row("updates applied",
      sor::Table::fmt_int(static_cast<long long>(report.updates_drained)));
  table.print(std::cout);

  // The byte-identity contract, checked on the same topology: a
  // controller-published bootstrap snapshot must serialize identically
  // to RouteSnapshot::build over route_fractional's split fractions.
  const bool identity_ok = sor::serve::snapshot_matches_route_fractional(
      g, system,
      sor::engine::DemandStream(g, cli.config.stream, cli.config.seed)
          .at_epoch(0),
      cli.config.engine.epsilon);
  std::cout << "snapshot vs route_fractional: "
            << (identity_ok ? "byte-identical" : "MISMATCH") << "\n";
  if (report.torn > 0) {
    std::cout << "FAIL: " << report.torn
              << " lookup(s) saw a table matching no published epoch\n";
    return 1;
  }
  if (!identity_ok) return 1;
  std::cout << "serving OK: every answer matched exactly one published "
               "epoch\n";
  return 0;
}

/// `sor_cli slo` — offline SLO check of a BENCH_*.json artifact: reports
/// the breaches the run recorded, then (with --slo-config) applies the
/// bounds to the artifact's ledger summary. Exits nonzero on any
/// violation — the CI gate the bench fixture chain drives.
int slo_main(int argc, char** argv) {
  std::string artifact_path;
  std::string slo_config_path;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--slo-config") {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value for --slo-config\n";
        return 2;
      }
      slo_config_path = argv[++i];
    } else if (artifact_path.empty()) {
      artifact_path = flag;
    } else {
      std::cerr << "usage: sor_cli slo BENCH_x.json [--slo-config FILE]\n";
      return 2;
    }
  }
  if (artifact_path.empty()) {
    std::cerr << "usage: sor_cli slo BENCH_x.json [--slo-config FILE]\n";
    return 2;
  }
  const auto doc = load_json(artifact_path);
  if (!doc) return 2;

  sor::telemetry::SloConfig config;
  if (!slo_config_path.empty()) {
    config = sor::telemetry::load_slo_config(slo_config_path);
  }
  const sor::telemetry::ArtifactSloReport report =
      sor::telemetry::evaluate_artifact_slo(*doc, config);

  const auto print_list =
      [](const char* label,
         const std::vector<sor::telemetry::SloBreach>& breaches) {
        std::cout << label << ": " << breaches.size() << " breach(es)\n";
        for (const sor::telemetry::SloBreach& b : breaches) {
          std::cout << "  epoch " << b.epoch << "  " << std::left
                    << std::setw(18) << b.slo << std::right << "  observed "
                    << sor::telemetry::format_quantity(b.value)
                    << "  budget "
                    << sor::telemetry::format_quantity(b.budget) << "\n";
        }
      };
  print_list("recorded at run time", report.recorded);
  if (config.any_set()) {
    print_list("re-evaluated vs --slo-config", report.evaluated);
  }
  std::cout << "slo: " << (report.status == 0 ? "OK" : "VIOLATED") << "\n";
  return report.status;
}

int dispatch(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "engine") == 0) {
    return engine_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "monitor") == 0) {
    return monitor_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve-bench") == 0) {
    return serve_bench_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "slo") == 0) {
    return slo_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "report") == 0) {
    return report_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "diff") == 0) {
    return diff_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "ledger") == 0) {
    return ledger_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "trend") == 0) {
    return trend_main(argc, argv);
  }
  const Args args = parse(argc, argv);
  if (!args.trace_out.empty()) enable_timeline_capture();

  const sor::Graph g = sor::load_graph(args.graph_path);
  std::cout << "graph: " << g.summary() << "\n";
  if (!g.is_connected()) {
    std::cerr << "error: graph is not connected\n";
    return 1;
  }

  sor::Demand demand;
  if (!args.demand_path.empty()) {
    demand = sor::load_demand(args.demand_path);
  } else {
    demand = sor::gravity_demand(g, static_cast<double>(g.num_vertices()));
    std::cout << "no --demand given; using a gravity matrix of total "
              << demand.total() << "\n";
  }
  std::cout << "demand: " << demand.support_size() << " pairs, total "
            << demand.total() << "\n";

  // Offline phase.
  sor::Stopwatch offline;
  std::unique_ptr<sor::ObliviousRouting> source;
  sor::PathSystem system;
  {
    SOR_SPAN("cli/offline");
    source = make_source(args.source, g, args.seed);
    sor::SampleOptions sample;
    sample.k = args.k;
    sample.deduplicate = true;
    system = sor::sample_path_system_for_demand(*source, demand, sample,
                                                args.seed + 1);
  }
  std::cout << "installed " << system.total_paths() << " paths from '"
            << source->name() << "' (k = " << args.k << ", max hops "
            << system.max_hops() << ") in " << offline.milliseconds()
            << " ms\n";

  if (!args.dump_paths.empty()) {
    std::ofstream dump(args.dump_paths);
    for (const sor::VertexPair& pair : system.pairs()) {
      for (const sor::PathView p : system.paths(pair.a, pair.b)) {
        for (sor::Vertex v : sor::path_vertices(g, p)) dump << v << " ";
        dump << "\n";
      }
    }
    dump.close();
    if (!dump) {
      std::cerr << "error: cannot write path dump to " << args.dump_paths
                << "\n";
      return 1;
    }
    std::cout << "wrote path dump to " << args.dump_paths << "\n";
  }

  // Online phase.
  sor::Stopwatch online;
  const sor::SemiObliviousRouter router(g, system);
  sor::FractionalRoute route;
  {
    SOR_SPAN("cli/online");
    route = router.route_fractional(demand);
  }
  std::cout << "rate optimization took " << online.milliseconds()
            << " ms\n";
  const sor::CompetitiveReport report =
      sor::competitive_ratio(g, route.congestion, demand);
  std::cout << "semi-oblivious congestion : " << report.scheme << "\n";
  std::cout << "offline OPT congestion    : " << report.opt << "\n";
  std::cout << "competitive ratio         : " << report.ratio << "\n";

  const sor::CongestionAttribution attribution = router.attribute(route, 3);
  if (!attribution.links.empty()) {
    std::cout << "bottleneck links:\n";
    for (const sor::LinkAttribution& link : attribution.links) {
      std::cout << "  " << link.u << "-" << link.v << " util "
                << link.utilization << " (" << link.contributors.size()
                << " contributing paths";
      if (!link.contributors.empty()) {
        const sor::PathContribution& top = link.contributors.front();
        std::cout << "; heaviest " << top.src << "->" << top.dst << " share "
                  << top.share;
      }
      std::cout << ")\n";
    }
  }

  if (args.integral) {
    if (!demand.is_integral()) {
      std::cerr << "--integral requires an integral demand\n";
      return 1;
    }
    sor::Rng rng(args.seed + 2);
    const sor::IntegralRoute integral = router.route_integral(demand, rng);
    sor::Rng sim_rng(args.seed + 3);
    const sor::SimResult sim =
        sor::simulate_store_and_forward(g, integral.packet_paths, sim_rng);
    std::cout << "integral congestion       : " << integral.congestion
              << " (dilation " << integral.dilation << ")\n";
    std::cout << "simulated makespan        : " << sim.makespan
              << " steps\n";
  }
  if (args.trace) {
    std::cout << "\nspan timings:\n" << sor::telemetry::span_tree_text();
  }
  if (!args.trace_out.empty() && !write_trace_out(args.trace_out)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Any exception a subcommand lets escape — a malformed input file, an
  // invalid artifact or SLO config — is a usage error: report it and exit
  // 2 instead of aborting.
  try {
    return dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
