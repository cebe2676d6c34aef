#pragma once

// The epoch-based semi-oblivious TE control loop.
//
// Per epoch the controller:
//   1. applies the epoch's failure/recovery events and repairs the path
//      system (activation masks + budgeted fallbacks, engine/repair);
//   2. predicts the epoch's demand from history, scores that prediction
//      against the realized matrix and feeds the matrix back into the
//      predictor (engine/predictor);
//   3. re-solves the restricted path LP for the predicted matrix,
//      warm-started with the previous epoch's split fractions and MWU
//      dual lengths (src/lp warm entry points) — the semi-oblivious
//      payoff: same sparse path system, cheap re-optimization;
//   4. installs the resulting split and measures the congestion the
//      *realized* matrix experiences under it;
//   5. saves the warm-start state for the next epoch;
//   6. runs the routing-quality observatory (engine/quality): predictor
//      scoring, install-churn tracking, and — on sampled epochs — the
//      shadow-optimal regret solve.
//
// Everything is deterministic given the trace and the seed, which is what
// makes trace replay (engine/replay) byte-identical.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/path_system.hpp"
#include "engine/event_trace.hpp"
#include "engine/predictor.hpp"
#include "engine/quality.hpp"
#include "engine/repair.hpp"
#include "lp/path_lp.hpp"
#include "telemetry/sketch.hpp"
#include "telemetry/slo.hpp"

namespace sor::serve {
class RouteService;
}  // namespace sor::serve

namespace sor::engine {

enum class EngineBackend { kMwu, kExact };

struct EngineOptions {
  EngineBackend backend = EngineBackend::kMwu;
  double epsilon = 0.05;
  /// Warm-start each epoch's solve from the previous epoch's state. Off =
  /// cold re-solve every epoch (the bench's comparison mode).
  bool warm_start = true;
  PredictorKind predictor = PredictorKind::kEwma;
  double ewma_alpha = 0.5;
  std::size_t peak_window = 4;
  RepairOptions repair;
  /// Wall-clock budget for each epoch's LP solve, in milliseconds
  /// (0 = unlimited). When the budget expires the solver stops at its
  /// next safe point and returns a feasible-but-unoptimized split (MWU:
  /// the scaled prefix of completed phases; exact: the uniform candidate
  /// split), the epoch completes with that split installed, and a
  /// structured "engine/solve_truncated" recorder event is emitted.
  /// Deliberately NOT part of the replay record format: truncation points
  /// depend on wall clock, so budgeted runs are not byte-replayable.
  double solve_deadline_ms = 0;
  /// Health bounds checked at every epoch boundary (telemetry/slo.hpp);
  /// the default config has every bound disabled. Like solve_deadline_ms
  /// this is NOT part of the replay record: the latency SLO reads
  /// wall-clock sketches, so breach sets are not byte-replayable and the
  /// replay digest excludes all health fields.
  telemetry::SloConfig slo;
  /// Routing-quality observatory (engine/quality.hpp): shadow-optimal
  /// regret sampling, predictor scoring, path churn. Fully deterministic
  /// — quality figures replay byte-identically — but, like the SLO
  /// config, NOT part of the replay record format: replay reruns must
  /// pass --shadow-every again, and the digest v1 excludes all quality
  /// fields so pre-observatory digests stay comparable.
  QualityOptions quality;
  /// Serving front-end to publish to (non-owning; must outlive the run;
  /// nullptr = no serving). When set, every epoch's install step builds
  /// an immutable serve::RouteSnapshot of the installed split and swaps
  /// it into the service (RCU publish), and run_control_loop drains the
  /// service's batched demand updates into each epoch's realized matrix.
  /// Publishing never alters routing decisions, so a run with a service
  /// attached (and no enqueued updates) stays byte-identical to one
  /// without — and, like the SLO config, this is NOT part of the replay
  /// record format.
  serve::RouteService* service = nullptr;
};

/// Per-epoch health snapshot: the run-so-far solve-latency quantiles
/// (from the controller's own sketch), the congestion high-watermark,
/// cache hit rate, and recorder drop count at the epoch boundary. All
/// wall-clock-derived or global-state-derived — excluded from the replay
/// digest.
struct EpochHealth {
  double solve_p50_ms = 0;
  double solve_p95_ms = 0;
  double solve_p99_ms = 0;
  /// Max realized congestion over the epochs run so far.
  double congestion_watermark = 0;
  /// Artifact-cache hit rate; -1 when there was no cache traffic.
  double cache_hit_rate = -1;
  /// Process peak RSS sampled at this epoch's boundary (0 when the
  /// platform exposes no RSS source; see telemetry/memory.hpp).
  std::uint64_t peak_rss_bytes = 0;
  /// Flight-recorder events evicted by the ring bound so far.
  std::uint64_t recorder_dropped = 0;
  /// SLO breaches detected at this epoch's boundary.
  std::size_t breaches = 0;
};

struct EpochReport {
  std::size_t epoch = 0;
  std::size_t events = 0;
  std::size_t active_failures = 0;
  double realized_total = 0;
  double predicted_total = 0;
  /// Relative L1 gap between prediction and realization (0 on the
  /// bootstrap epoch, which routes the realized matrix directly).
  double prediction_error = 0;
  /// Congestion the realized matrix experiences under the installed
  /// split — the number the network actually sees.
  double congestion = 0;
  /// Congestion of the solver's own (predicted) matrix.
  double solver_congestion = 0;
  /// Duality lower bound certified by this epoch's solve.
  double lower_bound = 0;
  bool warm_accepted = false;
  std::size_t phases = 0;
  /// The solve hit EngineOptions::solve_deadline_ms (or a cancel hook)
  /// and the installed split is the solver's documented fallback.
  bool truncated = false;
  RepairReport repair;
  /// Wall clock of the LP solve — nondeterministic; the replay digest
  /// excludes it.
  double solve_ms = 0;
  /// Runtime health at this epoch's boundary (also digest-excluded).
  EpochHealth health;
  /// Routing-quality figures (engine/quality.hpp). Deterministic but
  /// digest-excluded — see EngineOptions::quality.
  EpochQuality quality;
};

/// Thread-safety: step() runs on ONE control thread; serving readers see
/// the controller's work only through the immutable RouteSnapshots it
/// publishes (EngineOptions::service), never through shared mutable
/// state. Const members mutate nothing, so they are safe from any thread
/// while no step() runs.
class EpochController {
 public:
  /// `g` and `system` are referenced and must outlive the controller.
  EpochController(const Graph& g, const PathSystem& system,
                  EngineOptions options = {});

  /// Runs one epoch. `events` are this epoch's trace events (drift events
  /// must already be applied to whatever produced `realized`).
  EpochReport step(std::span<const Event> events, const Demand& realized);

  const PathActivation& activation() const { return repairer_.activation(); }
  const PathRepairer& repairer() const { return repairer_; }
  StatsSummary prediction_errors() const { return predictor_->error_summary(); }
  StatsSummary prediction_mapes() const { return predictor_->mape_summary(); }
  std::size_t epochs_run() const { return epoch_; }
  /// Every SLO breach detected so far (empty when options.slo is unset).
  const std::vector<telemetry::SloBreach>& breaches() const {
    return breaches_;
  }
  /// 0 while every epoch held the configured SLOs, 1 after any breach.
  int health_status() const { return breaches_.empty() ? 0 : 1; }

 private:
  /// Appends commodity `c` with the mask's active candidates (canonical
  /// orientation), or with the surviving-graph shortest path when none is
  /// active. With `ids` set, pushes each candidate's activation id
  /// (kInvalidPathId for the fallback).
  void append_candidates(RestrictedProblem& problem, const Commodity& c,
                         std::vector<PathId>* ids = nullptr) const;
  /// One commodity per demand pair, in Demand::commodities() order; `ids`
  /// receives each candidate's activation id, by candidate id.
  RestrictedProblem build_problem(const Demand& demand,
                                  std::vector<PathId>& ids) const;
  /// The installed shares re-applied to a problem whose candidates have
  /// activation ids `ids`: one flat fraction per candidate id.
  std::vector<double> remap_fractions(std::span<const PathId> ids) const;
  /// Congestion of the `realized` commodities (sorted by pair) on the
  /// split installed from `solved`, whose candidates carry `shares`
  /// (SplitTable::from_weights), routed on `solved` itself, which it
  /// consumes: a pair the prediction also had keeps its candidates and
  /// shares, a realized-only pair splits evenly over its own.
  double reroute(std::span<const Commodity> realized,
                 RestrictedProblem&& solved,
                 std::vector<double>&& shares) const;

  const Graph* graph_;
  const PathSystem* system_;
  EngineOptions options_;
  PathRepairer repairer_;
  std::unique_ptr<DemandPredictor> predictor_;
  std::size_t epoch_ = 0;
  /// The split installed by the last solve (null before the first),
  /// shared with the snapshot published from it.
  std::shared_ptr<const SplitTable> installed_;
  /// The same split by activation id: the first copy of a path in its
  /// commodity carries its row's fraction; later copies, ids the solve
  /// did not route, and ids added since carry 0.
  std::vector<double> installed_shares_;
  std::vector<double> warm_lengths_;
  /// Controller-local solve-latency sketch: per-run quantiles for the
  /// EpochReport health snapshot (the global "engine/solve_seconds"
  /// sketch accumulates across runs and feeds the exporters).
  telemetry::Sketch solve_sketch_;
  double congestion_watermark_ = 0;
  telemetry::SloTracker slo_;
  std::vector<telemetry::SloBreach> breaches_;
  QualityTracker quality_;
};

struct ControlLoopResult {
  std::vector<EpochReport> epochs;
  double total_solve_ms = 0;
  std::size_t warm_accepts = 0;
  std::size_t total_churn = 0;
  StatsSummary congestion_summary;
  StatsSummary prediction_error_summary;
  /// SLO breaches across the run (empty when options.slo is unset) and
  /// the resulting health status (0 healthy, 1 breached). Digest-excluded
  /// like every other wall-clock-derived field.
  std::vector<telemetry::SloBreach> breaches;
  int health_status = 0;
  /// Quality aggregates: regret ratios over the shadow-sampled epochs,
  /// MAPE over the scored (non-bootstrap) epochs, and total top-path
  /// flips. Empty/zero when the observatory is off.
  StatsSummary regret_summary;
  StatsSummary predictor_mape_summary;
  std::size_t shadow_solves = 0;
  std::size_t total_top_path_flips = 0;
};

/// Drives a controller over a full trace: realized matrices from the
/// demand stream (drift events applied as they fire), repair/solve per
/// epoch. Deterministic in (g, system, trace, options, seed). `on_epoch`,
/// when set, fires after each epoch completes — the live `sor_cli
/// monitor` hook; it observes reports but cannot change the run.
ControlLoopResult run_control_loop(
    const Graph& g, const PathSystem& system, const EventTrace& trace,
    const DemandStreamOptions& stream_options, const EngineOptions& options,
    std::uint64_t seed,
    const std::function<void(const EpochReport&)>& on_epoch = {});

}  // namespace sor::engine
