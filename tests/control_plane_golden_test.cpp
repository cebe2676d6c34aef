// Golden pin of the control plane's output.
//
// One small fixed run of the epoch controller — link failures that strand
// pairs onto fallbacks, recoveries that reactivate candidates, warm
// accepts and warm re-solves, shadow solves, and a RouteService attached
// — is compared byte for byte against three files checked in under
// tests/golden/: the replay digest, the quality block, and every epoch's
// published snapshot serialization. The run is pinned twice, on the same
// sample: once WITHOUT deduplication, so pairs hold equal candidates
// whose shares the installed split must merge (control_plane_*), and
// once deduplicated (control_plane_dedup_*), where a pair's system
// candidates are distinct paths but a fallback extra can still equal a
// base candidate that the budget reactivates later.
//
// On a mismatch the test prints the actual text and writes it to
// <file>.actual in its working directory. A deliberate change to the
// control plane's output is re-pinned by copying those files over the
// goldens.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "core/sampler.hpp"
#include "demand/generators.hpp"
#include "engine/controller.hpp"
#include "engine/quality.hpp"
#include "engine/replay.hpp"
#include "graph/generators.hpp"
#include "oblivious/racke_routing.hpp"
#include "serve/service.hpp"

namespace sor::engine {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string expected =
      read_file(std::string(SOR_GOLDEN_DIR) + "/" + name);
  if (actual == expected) return;
  std::ofstream(name + ".actual") << actual;
  ADD_FAILURE() << "tests/golden/" << name
                << " differs from the run (actual text written to " << name
                << ".actual):\n"
                << actual;
}

// Runs the pinned config on the Räcke sample, deduplicated or not, and
// compares the three outputs with the golden files named `prefix`_*.
void expect_golden_run(bool deduplicate, const std::string& prefix) {
  EngineRunRecord record;
  EngineRunConfig& config = record.config;
  config.topology = "wan:abilene";
  config.source = "racke";
  config.k = 3;
  config.seed = 5;
  config.trace.num_epochs = 14;
  config.trace.p_failure = 0.6;
  config.trace.mean_downtime = 3.0;
  config.trace.max_concurrent_failures = 3;
  config.stream.total = 40.0;
  config.engine.quality.shadow_every = 3;

  const Graph g = build_topology(config.topology);
  SampleOptions sample;
  sample.k = config.k;
  sample.deduplicate = false;
  RaeckeOptions racke;
  racke.seed = config.seed;
  const RaeckeRouting routing(g, racke);
  PathSystem system = sample_path_system_for_demand(
      routing, gravity_demand(g, config.stream.total), sample,
      config.seed + 1);
  PathSystem unique = system;
  ASSERT_GT(unique.deduplicate(), 0u) << "the system must hold equal paths";
  if (deduplicate) system = std::move(unique);

  serve::RouteService service;
  config.engine.service = &service;
  record.trace = generate_trace(g, config.trace, config.seed);
  std::string snapshots;
  const ControlLoopResult result = run_control_loop(
      g, system, record.trace, config.stream, config.engine, config.seed,
      [&](const EpochReport&) {
        snapshots += service.snapshot()->serialize();
      });

  bool fallback = false;
  bool reactivated = false;
  bool warm_accept = false;
  bool warm_resolve = false;
  for (const EpochReport& r : result.epochs) {
    fallback |= r.repair.fallbacks_installed > 0;
    reactivated |= r.repair.reactivated > 0;
    warm_accept |= r.warm_accepted;
    warm_resolve |= r.epoch > 0 && !r.warm_accepted;
  }
  EXPECT_TRUE(fallback);
  EXPECT_TRUE(reactivated);
  EXPECT_TRUE(warm_accept);
  EXPECT_TRUE(warm_resolve);
  EXPECT_GT(result.shadow_solves, 0u);

  expect_golden(prefix + "_digest.json",
                digest_json(record, result).dump(2) + "\n");
  expect_golden(prefix + "_quality.json",
                quality_to_json(result, config.engine.quality).dump(2) + "\n");
  expect_golden(prefix + "_snapshots.txt", snapshots);
}

TEST(ControlPlaneGolden, DigestQualityAndSnapshotsAreByteIdentical) {
  expect_golden_run(/*deduplicate=*/false, "control_plane");
}

TEST(ControlPlaneGolden, DeduplicatedRunIsByteIdentical) {
  expect_golden_run(/*deduplicate=*/true, "control_plane_dedup");
}

}  // namespace
}  // namespace sor::engine
