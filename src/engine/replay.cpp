#include "engine/replay.hpp"

#include <iomanip>
#include <istream>
#include <locale>
#include <ostream>
#include <sstream>
#include <string>

#include "core/sampler.hpp"
#include "demand/generators.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "oblivious/ksp.hpp"
#include "oblivious/racke_routing.hpp"
#include "oblivious/shortest_path.hpp"
#include "util/check.hpp"

namespace sor::engine {

Graph build_topology(const std::string& topology) {
  const std::size_t colon = topology.find(':');
  SOR_CHECK_MSG(colon != std::string::npos,
                "topology spec needs a prefix: " << topology);
  const std::string kind = topology.substr(0, colon);
  const std::string arg = topology.substr(colon + 1);
  if (kind == "wan") {
    if (arg == "abilene") return make_abilene().graph;
    if (arg == "b4") return make_b4().graph;
    if (arg == "geant") return make_geant().graph;
    SOR_CHECK_MSG(false, "unknown wan " << arg);
  }
  if (kind == "hypercube") {
    return make_hypercube(static_cast<std::uint32_t>(std::stoul(arg)));
  }
  if (kind == "file") return load_graph(arg);
  SOR_CHECK_MSG(false, "unknown topology kind " << kind);
  return Graph(0);
}

PathSystem build_path_system(const Graph& g, const EngineRunConfig& config) {
  const Demand support = gravity_demand(g, config.stream.total);
  SampleOptions sample;
  sample.k = config.k;
  sample.deduplicate = true;
  if (config.source == "racke") {
    RaeckeOptions racke;
    racke.seed = config.seed;
    const RaeckeRouting routing(g, racke);
    return sample_path_system_for_demand(routing, support, sample,
                                         config.seed + 1);
  }
  if (config.source == "ksp") {
    const KspRouting routing(g, std::max<std::size_t>(config.k, 2));
    return sample_path_system_for_demand(routing, support, sample,
                                         config.seed + 1);
  }
  if (config.source == "sp") {
    const ShortestPathRouting routing(g);
    return sample_path_system_for_demand(routing, support, sample,
                                         config.seed + 1);
  }
  SOR_CHECK_MSG(false, "unknown path source " << config.source);
  return PathSystem{};
}

EngineRunOutput run_from_config(
    const EngineRunConfig& config,
    const std::function<void(const EpochReport&)>& on_epoch) {
  EngineRunOutput out;
  out.record.config = config;
  const Graph g = build_topology(config.topology);
  const PathSystem system = build_path_system(g, config);
  out.record.trace = generate_trace(g, config.trace, config.seed);
  out.result = run_control_loop(g, system, out.record.trace, config.stream,
                                config.engine, config.seed, on_epoch);
  return out;
}

ControlLoopResult replay_record(
    const EngineRunRecord& record,
    const std::function<void(const EpochReport&)>& on_epoch) {
  const Graph g = build_topology(record.config.topology);
  const PathSystem system = build_path_system(g, record.config);
  return run_control_loop(g, system, record.trace, record.config.stream,
                          record.config.engine, record.config.seed, on_epoch);
}

void save_record(const EngineRunRecord& record, std::ostream& out) {
  // Records are locale-free: the text is formatted in a classic-locale
  // buffer (a grouping locale would write `seed 1,234,567`) and copied
  // out, so the caller's stream keeps its own locale and precision.
  std::ostringstream os;
  os.imbue(std::locale::classic());
  const EngineRunConfig& c = record.config;
  os << "sor-engine-record v1\n";
  os << std::setprecision(17);
  os << "topology " << c.topology << "\n";
  os << "source " << c.source << "\n";
  os << "k " << c.k << "\n";
  os << "seed " << c.seed << "\n";
  os << "p_failure " << c.trace.p_failure << "\n";
  os << "mean_downtime " << c.trace.mean_downtime << "\n";
  os << "p_drift " << c.trace.p_drift << "\n";
  os << "drift_sigma " << c.trace.drift_sigma << "\n";
  os << "max_concurrent_failures " << c.trace.max_concurrent_failures << "\n";
  os << "total " << c.stream.total << "\n";
  os << "jitter_sigma " << c.stream.jitter_sigma << "\n";
  os << "backend " << (c.engine.backend == EngineBackend::kMwu ? "mwu" : "exact")
     << "\n";
  os << "epsilon " << c.engine.epsilon << "\n";
  os << "warm_start " << (c.engine.warm_start ? 1 : 0) << "\n";
  os << "predictor "
     << (c.engine.predictor == PredictorKind::kEwma ? "ewma" : "peak") << "\n";
  os << "ewma_alpha " << c.engine.ewma_alpha << "\n";
  os << "peak_window " << c.engine.peak_window << "\n";
  os << "churn_budget " << c.engine.repair.churn_budget << "\n";
  save_trace(record.trace, os);
  out << os.str();
}

EngineRunRecord load_record(std::istream& is) {
  std::string line;
  SOR_CHECK_MSG(std::getline(is, line) && line == "sor-engine-record v1",
                "bad engine record header");
  EngineRunRecord record;
  EngineRunConfig& c = record.config;
  const std::size_t num_config_lines = 18;
  for (std::size_t i = 0; i < num_config_lines; ++i) {
    SOR_CHECK_MSG(std::getline(is, line), "truncated engine record");
    std::istringstream row(line);
    row.imbue(std::locale::classic());
    std::string key;
    SOR_CHECK(row >> key);
    auto read_string = [&]() {
      std::string v;
      SOR_CHECK_MSG(row >> v, "missing value for " << key);
      return v;
    };
    if (key == "topology") {
      c.topology = read_string();
    } else if (key == "source") {
      c.source = read_string();
    } else if (key == "k") {
      SOR_CHECK(row >> c.k);
    } else if (key == "seed") {
      SOR_CHECK(row >> c.seed);
    } else if (key == "p_failure") {
      SOR_CHECK(row >> c.trace.p_failure);
    } else if (key == "mean_downtime") {
      SOR_CHECK(row >> c.trace.mean_downtime);
    } else if (key == "p_drift") {
      SOR_CHECK(row >> c.trace.p_drift);
    } else if (key == "drift_sigma") {
      SOR_CHECK(row >> c.trace.drift_sigma);
    } else if (key == "max_concurrent_failures") {
      SOR_CHECK(row >> c.trace.max_concurrent_failures);
    } else if (key == "total") {
      SOR_CHECK(row >> c.stream.total);
    } else if (key == "jitter_sigma") {
      SOR_CHECK(row >> c.stream.jitter_sigma);
    } else if (key == "backend") {
      const std::string v = read_string();
      SOR_CHECK_MSG(v == "mwu" || v == "exact", "unknown backend " << v);
      c.engine.backend =
          v == "mwu" ? EngineBackend::kMwu : EngineBackend::kExact;
    } else if (key == "epsilon") {
      SOR_CHECK(row >> c.engine.epsilon);
    } else if (key == "warm_start") {
      int v = 0;
      SOR_CHECK(row >> v);
      c.engine.warm_start = v != 0;
    } else if (key == "predictor") {
      const std::string v = read_string();
      SOR_CHECK_MSG(v == "ewma" || v == "peak", "unknown predictor " << v);
      c.engine.predictor =
          v == "ewma" ? PredictorKind::kEwma : PredictorKind::kPeak;
    } else if (key == "ewma_alpha") {
      SOR_CHECK(row >> c.engine.ewma_alpha);
    } else if (key == "peak_window") {
      SOR_CHECK(row >> c.engine.peak_window);
    } else if (key == "churn_budget") {
      SOR_CHECK(row >> c.engine.repair.churn_budget);
    } else {
      SOR_CHECK_MSG(false, "unknown engine record key " << key);
    }
  }
  record.trace = load_trace(is);
  record.config.trace.num_epochs = record.trace.num_epochs;
  return record;
}

telemetry::JsonValue digest_json(const EngineRunRecord& record,
                                 const ControlLoopResult& result) {
  using telemetry::JsonValue;
  const EngineRunConfig& c = record.config;

  JsonValue config = JsonValue::object();
  config.set("topology", c.topology);
  config.set("source", c.source);
  config.set("k", static_cast<std::uint64_t>(c.k));
  config.set("seed", static_cast<std::uint64_t>(c.seed));
  config.set("backend",
             c.engine.backend == EngineBackend::kMwu ? "mwu" : "exact");
  config.set("epsilon", c.engine.epsilon);
  config.set("warm_start", c.engine.warm_start);
  config.set("predictor",
             c.engine.predictor == PredictorKind::kEwma ? "ewma" : "peak");
  config.set("churn_budget",
             static_cast<std::uint64_t>(c.engine.repair.churn_budget));

  JsonValue epochs = JsonValue::array();
  for (const EpochReport& r : result.epochs) {
    JsonValue row = JsonValue::object();
    row.set("epoch", static_cast<std::uint64_t>(r.epoch));
    row.set("events", static_cast<std::uint64_t>(r.events));
    row.set("active_failures", static_cast<std::uint64_t>(r.active_failures));
    row.set("realized_total", r.realized_total);
    row.set("predicted_total", r.predicted_total);
    row.set("prediction_error", r.prediction_error);
    row.set("congestion", r.congestion);
    row.set("solver_congestion", r.solver_congestion);
    row.set("lower_bound", r.lower_bound);
    row.set("warm_accepted", r.warm_accepted);
    row.set("phases", static_cast<std::uint64_t>(r.phases));
    row.set("truncated", r.truncated);
    row.set("deactivated", static_cast<std::uint64_t>(r.repair.deactivated));
    row.set("reactivated", static_cast<std::uint64_t>(r.repair.reactivated));
    row.set("fallbacks",
            static_cast<std::uint64_t>(r.repair.fallbacks_installed));
    row.set("deferred", static_cast<std::uint64_t>(r.repair.deferred));
    epochs.push(std::move(row));
  }

  JsonValue doc = JsonValue::object();
  doc.set("digest", "sor-engine/v1");
  doc.set("config", std::move(config));
  doc.set("num_epochs", static_cast<std::uint64_t>(record.trace.num_epochs));
  doc.set("num_events", static_cast<std::uint64_t>(record.trace.events.size()));
  doc.set("warm_accepts", static_cast<std::uint64_t>(result.warm_accepts));
  doc.set("total_churn", static_cast<std::uint64_t>(result.total_churn));
  doc.set("per_epoch", std::move(epochs));
  return doc;
}

}  // namespace sor::engine
