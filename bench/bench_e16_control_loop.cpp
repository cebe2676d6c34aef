// E16: epoch-based control loop — warm-started re-solves vs cold re-solves.
//
// Runs the TE engine over a deterministic failure/drift trace on Abilene
// (plus B4 in full mode), once with warm starts enabled and once cold, and
// reports per-epoch congestion, path churn, and solve time. The claim under
// test: with a fixed sparse path system, re-optimizing rates each epoch is
// cheap — and warm-starting from the previous epoch's duals/split makes it
// measurably cheaper than solving from scratch, at equal solution quality.
//
// Side artifacts (consumed by the replay ctest fixtures):
//   E16_record.txt  — the recorded run (config + trace) for `engine replay`
//   E16_digest.json — the deterministic digest of the warm run

#include <fstream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/attribution.hpp"
#include "demand/generators.hpp"
#include "engine/quality.hpp"
#include "engine/replay.hpp"
#include "graph/generators.hpp"

namespace {

using sor::engine::ControlLoopResult;
using sor::engine::EngineRunConfig;
using sor::engine::EngineRunRecord;

constexpr const char* kId = "E16: epoch-based semi-oblivious control loop";
constexpr const char* kClaim =
    "warm-started per-epoch re-solves over a fixed sparse path system track "
    "demand drift and failures at equal quality but lower solve time than "
    "cold re-solves";

EngineRunConfig base_config(const std::string& wan, std::size_t epochs) {
  EngineRunConfig config;
  config.topology = "wan:" + wan;
  config.source = "racke";
  config.k = 4;
  config.seed = 16;
  config.trace.num_epochs = epochs;
  config.engine.warm_start = true;
  // Routing-quality observatory: shadow-optimal regret every 2nd epoch.
  // Quality options ride the in-memory config (so the cold replay runs
  // them too) but are NOT serialized into E16_record.txt — the replay
  // fixtures re-pass --shadow-every on the CLI.
  config.engine.quality.shadow_every = 2;
  return config;
}

void add_mode_row(sor::Table& table, const std::string& wan,
                  const std::string& mode, const ControlLoopResult& result) {
  table.add_row(
      {wan, mode,
       sor::Table::fmt_int(static_cast<long long>(result.epochs.size())),
       sor::Table::fmt(result.congestion_summary.p50, 4),
       sor::Table::fmt(result.congestion_summary.max, 4),
       sor::Table::fmt(result.prediction_error_summary.mean, 4),
       sor::Table::fmt(result.regret_summary.p95, 4),
       sor::Table::fmt(result.predictor_mape_summary.mean, 4),
       sor::Table::fmt_int(static_cast<long long>(result.warm_accepts)),
       sor::Table::fmt_int(static_cast<long long>(result.total_churn)),
       sor::Table::fmt(result.total_solve_ms, 2)});
}

sor::telemetry::JsonValue mode_json(const ControlLoopResult& result) {
  using sor::telemetry::JsonValue;
  JsonValue congestion = JsonValue::array();
  JsonValue churn = JsonValue::array();
  JsonValue solve_ms = JsonValue::array();
  for (const sor::engine::EpochReport& r : result.epochs) {
    congestion.push(r.congestion);
    churn.push(static_cast<std::uint64_t>(r.repair.churn()));
    solve_ms.push(r.solve_ms);
  }
  JsonValue mode = JsonValue::object();
  mode.set("per_epoch_congestion", std::move(congestion));
  mode.set("per_epoch_churn", std::move(churn));
  mode.set("per_epoch_solve_ms", std::move(solve_ms));
  mode.set("total_solve_ms", result.total_solve_ms);
  mode.set("warm_accepts", static_cast<std::uint64_t>(result.warm_accepts));
  return mode;
}

/// Top-K bottleneck attribution for the recorded topology: rebuild the
/// graph and path system exactly as the run did, route the stream's
/// gravity demand, and decompose the resulting load per link.
sor::telemetry::JsonValue attribution_json(const EngineRunConfig& config) {
  const sor::Graph g = sor::engine::build_topology(config.topology);
  const sor::PathSystem system = sor::engine::build_path_system(g, config);
  sor::RouterOptions options;
  options.backend = sor::LpBackend::kMwu;
  options.add_shortest_fallback = true;
  const sor::SemiObliviousRouter router(g, system, options);
  const sor::Demand demand = sor::gravity_demand(g, config.stream.total);
  const sor::FractionalRoute route = router.route_fractional(demand);
  return sor::attribution_to_json(router.attribute(route, 8));
}

}  // namespace

int main() {
  using sor::telemetry::JsonValue;
  const std::size_t epochs = sor::bench::scaled(48, 12);

  sor::Table table({"topology", "mode", "epochs", "cong_p50", "cong_max",
                    "pred_err", "regret_p95", "mape", "warm_accepts", "churn",
                    "solve_ms"});

  // Abilene: the recorded run. Warm first (this is the record the replay
  // fixture re-runs), then the identical trace replayed cold.
  const EngineRunConfig config = base_config("abilene", epochs);
  const sor::engine::EngineRunOutput warm = sor::engine::run_from_config(config);
  add_mode_row(table, "abilene", "warm", warm.result);

  EngineRunRecord cold_record = warm.record;
  cold_record.config.engine.warm_start = false;
  const ControlLoopResult cold = sor::engine::replay_record(cold_record);
  add_mode_row(table, "abilene", "cold", cold);

  {
    std::ofstream os("E16_record.txt");
    sor::engine::save_record(warm.record, os);
  }
  {
    std::ofstream os("E16_digest.json");
    os << sor::engine::digest_json(warm.record, warm.result).dump(2) << "\n";
  }

  if (!sor::bench::quick_mode()) {
    const EngineRunConfig b4 = base_config("b4", epochs);
    const sor::engine::EngineRunOutput b4_warm = sor::engine::run_from_config(b4);
    add_mode_row(table, "b4", "warm", b4_warm.result);
    EngineRunRecord b4_cold = b4_warm.record;
    b4_cold.config.engine.warm_start = false;
    add_mode_row(table, "b4", "cold", sor::engine::replay_record(b4_cold));
  }

  // Standard artifact plus the extension blocks the schema checker
  // validates: per-epoch series for both modes of the recorded topology,
  // and the bottleneck-link attribution of its steady-state demand.
  JsonValue modes = JsonValue::object();
  modes.set("warm", mode_json(warm.result));
  modes.set("cold", mode_json(cold));
  JsonValue e16 = JsonValue::object();
  e16.set("epochs", static_cast<std::uint64_t>(epochs));
  e16.set("modes", std::move(modes));

  std::vector<std::pair<std::string, JsonValue>> extra;
  extra.emplace_back("e16", std::move(e16));
  extra.emplace_back("attribution", attribution_json(config));
  // Schema v7: the quality block of the canonical (warm) run — regret,
  // predictor error, and churn series for `sor_cli report` + the trend
  // gate's regret_p95 / predictor_mape metrics.
  extra.emplace_back("quality", sor::engine::quality_to_json(
                                    warm.result, config.engine.quality));
  const bool ok = sor::bench::emit(kId, kClaim, table, std::move(extra));
  std::cout << "side artifacts: E16_record.txt, E16_digest.json\n";
  return ok ? 0 : 1;
}
