#include "engine/controller.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "lp/shadow.hpp"
#include "serve/service.hpp"
#include "telemetry/memory.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stopwatch.hpp"

namespace sor::engine {

EpochController::EpochController(const Graph& g, const PathSystem& system,
                                 EngineOptions options)
    : graph_(&g),
      system_(&system),
      options_(options),
      repairer_(g, system, options.repair),
      predictor_(make_predictor(options.predictor, options.ewma_alpha,
                                options.peak_window)),
      slo_(options.slo),
      quality_(options.quality) {
  SOR_CHECK(options.epsilon > 0 && options.epsilon < 1);
  SOR_CHECK(options.quality.shadow_epsilon > 0 &&
            options.quality.shadow_epsilon < 1);
}

RestrictedProblem EpochController::build_problem(const Demand& demand) const {
  SOR_SPAN("engine/build_problem");
  RestrictedProblem problem;
  problem.graph = graph_;
  const PathActivation& activation = repairer_.activation();
  for (const Commodity& c : demand.commodities()) {
    RestrictedCommodity rc;
    rc.demand = c.amount;
    rc.candidates = activation.active_oriented(c.src, c.dst);
    if (rc.candidates.empty()) {
      // Pair outside the installed system (or its mandatory fallback was
      // unreachable) — last-resort surviving-graph shortest path, the
      // engine-side mirror of RouterOptions::add_shortest_fallback.
      Path fallback = repairer_.surviving_shortest_path(c.src, c.dst);
      SOR_CHECK_MSG(fallback.src != kInvalidVertex,
                    "pair (" << c.src << "," << c.dst
                             << ") disconnected on the surviving graph");
      SOR_COUNTER("engine/adhoc_fallbacks").add();
      telemetry::Recorder::global().record(
          "engine/stranded", {{"src", static_cast<std::uint64_t>(c.src)},
                              {"dst", static_cast<std::uint64_t>(c.dst)},
                              {"hops", fallback.hops()}});
      rc.candidates.push_back(std::move(fallback));
    }
    problem.commodities.push_back(std::move(rc));
  }
  return problem;
}

std::vector<std::vector<double>> EpochController::remap_fractions(
    const RestrictedProblem& problem) const {
  std::vector<std::vector<double>> fractions(problem.commodities.size());
  for (std::size_t j = 0; j < problem.commodities.size(); ++j) {
    const RestrictedCommodity& c = problem.commodities[j];
    fractions[j].assign(c.candidates.size(), 0.0);
    // Commodities come from Demand::commodities(), so every candidate is
    // canonical and compares directly against the table's rows.
    const std::span<const SplitRow> rows =
        installed_.rows(c.candidates.front().src, c.candidates.front().dst);
    for (std::size_t p = 0; p < c.candidates.size(); ++p) {
      const auto row = std::lower_bound(
          rows.begin(), rows.end(), c.candidates[p],
          [](const SplitRow& r, const Path& path) {
            return path_lexicographic_less(r.path, path);
          });
      if (row != rows.end() && row->path == c.candidates[p]) {
        fractions[j][p] = row->fraction;
      }
    }
  }
  return fractions;
}

EpochReport EpochController::step(std::span<const Event> events,
                                  const Demand& realized) {
  SOR_SPAN("engine/epoch");
  EpochReport report;
  report.epoch = epoch_++;
  report.events = events.size();
  report.realized_total = realized.total();

  {
    SOR_SPAN("engine/repair");
    std::vector<VertexPair> support;
    for (const auto& [pair, amount] : realized.entries()) {
      support.push_back(pair);
    }
    std::sort(support.begin(), support.end(),
              [](const VertexPair& x, const VertexPair& y) {
                return std::tie(x.a, x.b) < std::tie(y.a, y.b);
              });
    report.repair = repairer_.apply_epoch(events, support);
  }
  report.active_failures = repairer_.failed_edges();
  if (report.repair.churn() > 0 || report.repair.deferred > 0) {
    telemetry::Recorder::global().record(
        "engine/repair",
        {{"epoch", static_cast<std::uint64_t>(report.epoch)},
         {"deactivated", static_cast<std::uint64_t>(report.repair.deactivated)},
         {"reactivated", static_cast<std::uint64_t>(report.repair.reactivated)},
         {"fallbacks_installed",
          static_cast<std::uint64_t>(report.repair.fallbacks_installed)},
         {"deferred", static_cast<std::uint64_t>(report.repair.deferred)},
         {"active_failures",
          static_cast<std::uint64_t>(report.active_failures)}});
  }

  // Predict; bootstrap epoch routes the realized matrix directly.
  Demand target;
  {
    SOR_SPAN("engine/predict");
    if (predictor_->observations() == 0) {
      target = realized;
    } else {
      target = predictor_->predict();
      report.prediction_error = relative_l1_error(target, realized);
      // Observatory: per-pair scoring of the same pending prediction.
      const PredictorScore score = score_prediction(target, realized);
      report.quality.predictor_mape = score.mape;
      report.quality.worst_pair_error = score.worst_error;
      report.quality.worst_src = score.worst_src;
      report.quality.worst_dst = score.worst_dst;
      telemetry::Recorder::global().record(
          "engine/predict",
          {{"epoch", static_cast<std::uint64_t>(report.epoch)},
           {"error", report.prediction_error},
           {"mape", score.mape},
           {"worst_pair_error", score.worst_error}});
    }
  }
  report.predicted_total = target.total();

  const RestrictedProblem problem = build_problem(target);
  RestrictedSolution solution;
  {
    SOR_SPAN("engine/solve");
    Stopwatch clock;
    // Budget the solve: the scope installs a thread-local deadline the
    // solvers poll at their safe points. Truncated solves still return a
    // feasible split (see EngineOptions::solve_deadline_ms), so the epoch
    // proceeds normally below — install, measure, feed the predictor.
    telemetry::ProgressReporter budget_reporter;
    std::optional<telemetry::ProgressScope> budget;
    if (options_.solve_deadline_ms > 0) {
      budget_reporter.deadline_seconds = options_.solve_deadline_ms / 1000.0;
      budget.emplace(budget_reporter);
    }
    const bool have_warm = options_.warm_start && !installed_.empty() &&
                           !warm_lengths_.empty();
    RestrictedWarmStart warm;
    if (have_warm) {
      warm.fractions = remap_fractions(problem);
      warm.lengths = warm_lengths_;
    }
    if (options_.backend == EngineBackend::kMwu) {
      RestrictedMwuOptions mwu;
      mwu.epsilon = options_.epsilon;
      if (have_warm) mwu.warm = &warm;
      solution = solve_restricted_mwu(problem, mwu);
    } else {
      // Exact backend: the dense simplex has no basis-input hook, so the
      // warm start is the accept test alone — reuse the installed split
      // if the warm lengths already certify it, else re-solve cold.
      bool accepted = false;
      if (have_warm) {
        RestrictedSolution reused =
            route_restricted_fractions(problem, warm.fractions);
        const double lb = restricted_dual_bound(problem, warm.lengths);
        if (lb > 0 && reused.congestion <= (1.0 + options_.epsilon) * lb) {
          reused.lower_bound = lb;
          reused.warm_accepted = true;
          reused.dual_lengths = warm.lengths;
          solution = std::move(reused);
          accepted = true;
          SOR_COUNTER("lp/warm_accepts").add();
        }
      }
      if (!accepted) solution = solve_restricted_exact(problem);
    }
    report.solve_ms = clock.milliseconds();
    // The controller-local sketch feeds this run's health snapshot; the
    // engine/solve span feeds the registry's engine/solve_seconds.
    solve_sketch_.observe(report.solve_ms / 1e3);
    if (have_warm) {
      // Dual-bound gap of the solution actually installed: 0-ish when the
      // warm split was accepted as-is, larger when the accept test failed
      // and the solver had to re-run.
      const double gap = solution.lower_bound > 0
                             ? solution.congestion / solution.lower_bound - 1.0
                             : -1.0;
      telemetry::Recorder::global().record(
          "engine/warm", {{"epoch", static_cast<std::uint64_t>(report.epoch)},
                          {"accepted", solution.warm_accepted},
                          {"gap", gap},
                          {"phases", static_cast<std::uint64_t>(solution.phases)}});
    }
  }
  report.solver_congestion = solution.congestion;
  report.lower_bound = solution.lower_bound;
  report.warm_accepted = solution.warm_accepted;
  report.phases = solution.phases;
  report.truncated = solution.truncated;
  if (solution.warm_accepted) SOR_COUNTER("engine/warm_accepts").add();
  if (solution.truncated) {
    SOR_COUNTER("engine/solves_truncated").add();
    telemetry::Recorder::global().record(
        "engine/solve_truncated",
        {{"epoch", static_cast<std::uint64_t>(report.epoch)},
         {"deadline_ms", options_.solve_deadline_ms},
         {"solve_ms", report.solve_ms},
         {"phases", static_cast<std::uint64_t>(solution.phases)},
         {"congestion", solution.congestion}});
  }

  {
    SOR_SPAN("engine/install");
    installed_ = SplitTable::from_weights(problem, solution.weights);
    if (!solution.dual_lengths.empty()) warm_lengths_ = solution.dual_lengths;
  }

  // Snapshot publish: freeze the just-installed split into an immutable
  // RouteSnapshot and RCU-swap it into the serving front-end. Readers on
  // other threads keep answering from the previous epoch's table until
  // the single release store below lands; nothing here feeds back into
  // routing, so serving-enabled runs stay byte-identical.
  if (options_.service != nullptr) {
    SOR_SPAN("engine/publish");
    auto snap = std::make_shared<const serve::RouteSnapshot>(
        serve::RouteSnapshot::build(report.epoch, installed_));
    telemetry::Recorder::global().record(
        "engine/publish",
        {{"epoch", static_cast<std::uint64_t>(report.epoch)},
         {"pairs", static_cast<std::uint64_t>(snap->num_pairs())},
         {"paths", static_cast<std::uint64_t>(snap->num_paths())},
         {"digest", snap->digest()}});
    options_.service->publish(std::move(snap));
  }

  // The realized matrix rides the installed split.
  if (predictor_->observations() == 0) {
    report.congestion = solution.congestion;
  } else {
    SOR_SPAN("engine/reroute");
    const RestrictedProblem realized_problem = build_problem(realized);
    const RestrictedSolution applied = route_restricted_fractions(
        realized_problem, remap_fractions(realized_problem));
    report.congestion = applied.congestion;
  }
  // Routing-quality observatory: install churn every epoch, the shadow-
  // optimal regret solve on sampled epochs. All deterministic (the shadow
  // MCF is deterministic and the sample points are a pure function of the
  // epoch index), so quality figures replay byte-identically — but they
  // stay out of the replay digest v1 (see EngineOptions::quality).
  {
    SOR_SPAN("engine/quality");
    quality_.observe_install(repairer_.activation(), installed_,
                             report.quality);
  }
  if (quality_.shadow_due(report.epoch)) {
    SOR_SPAN("engine/shadow");
    ShadowSolveOptions shadow_options;
    shadow_options.epsilon = options_.quality.shadow_epsilon;
    const ShadowSolveResult shadow =
        solve_shadow_optimal(*graph_, realized, shadow_options);
    report.quality.shadow_sampled = true;
    report.quality.shadow_opt = shadow.opt_congestion;
    report.quality.shadow_lower_bound = shadow.lower_bound;
    report.quality.shadow_truncated = shadow.truncated;
    report.quality.regret = shadow.opt_congestion > 0
                                ? report.congestion / shadow.opt_congestion
                                : 0;
    telemetry::Recorder::global().record(
        "engine/shadow",
        {{"epoch", static_cast<std::uint64_t>(report.epoch)},
         {"achieved", report.congestion},
         {"shadow_opt", shadow.opt_congestion},
         {"regret", report.quality.regret},
         {"truncated", shadow.truncated}});
  }
  // Quality metrics; the quality/... names export through Prometheus as
  // sor_quality_*. Regret and MAPE only feed on the epochs that produced
  // them, so their sketches never see sentinel values.
  if (report.quality.shadow_sampled) {
    SOR_SKETCH("quality/regret").observe(report.quality.regret);
    SOR_GAUGE("quality/last_regret").set(report.quality.regret);
  }
  if (report.quality.predictor_mape >= 0) {
    SOR_SKETCH("quality/predictor_mape").observe(report.quality.predictor_mape);
    SOR_GAUGE("quality/last_predictor_mape")
        .set(report.quality.predictor_mape);
  }
  SOR_COUNTER("quality/mask_churn").add(report.quality.mask_churn);
  SOR_COUNTER("quality/top_path_flips").add(report.quality.top_path_flips);
  SOR_GAUGE("quality/weight_l1_drift").set(report.quality.weight_l1_drift);

  SOR_GAUGE("engine/last_congestion").set(report.congestion);
  SOR_COUNTER("engine/epochs").add();
  telemetry::Recorder::global().record(
      "engine/epoch",
      {{"epoch", static_cast<std::uint64_t>(report.epoch)},
       {"events", static_cast<std::uint64_t>(report.events)},
       {"congestion", report.congestion},
       {"solver_congestion", report.solver_congestion},
       {"warm_accepted", report.warm_accepted},
       {"phases", static_cast<std::uint64_t>(report.phases)},
       {"churn", static_cast<std::uint64_t>(report.repair.churn())},
       {"solve_ms", report.solve_ms}});

  // Runtime health: feed the sketches, close this epoch's registry
  // window, snapshot the figures into the report, and check the SLOs.
  // report.congestion is deterministic, so the congestion sketch and its
  // max (the watermark) are too; the latency figures are wall clock and
  // stay out of the replay digest.
  SOR_SKETCH("engine/congestion").observe(report.congestion);
  SOR_COUNTER("engine/churn").add(report.repair.churn());
  // Peak RSS at the epoch boundary: set before the roll so the windowed
  // series carries one memory point per epoch. Wall-clock-free but
  // allocator-dependent, so digest-excluded like the latency figures.
  const telemetry::MemoryUsage memory = telemetry::sample_memory_usage();
  SOR_GAUGE("engine/peak_rss_bytes")
      .set(static_cast<double>(memory.peak_rss_bytes));
  telemetry::Registry::global().roll_epoch(report.epoch);

  congestion_watermark_ = std::max(congestion_watermark_, report.congestion);
  const StatsSummary solve_summary = solve_sketch_.summary();
  report.health.solve_p50_ms = solve_summary.p50 * 1e3;
  report.health.solve_p95_ms = solve_summary.p95 * 1e3;
  report.health.solve_p99_ms = solve_summary.p99 * 1e3;
  report.health.congestion_watermark = congestion_watermark_;
  report.health.cache_hit_rate = telemetry::cache_hit_rate();
  report.health.peak_rss_bytes = memory.peak_rss_bytes;
  report.health.recorder_dropped = telemetry::Recorder::global().dropped();
  if (slo_.active()) {
    const std::vector<telemetry::SloBreach> epoch_breaches = slo_.check_epoch(
        report.epoch, report.congestion, report.health.solve_p99_ms,
        report.health.cache_hit_rate,
        report.quality.shadow_sampled ? report.quality.regret : -1.0,
        report.quality.predictor_mape);
    report.health.breaches = epoch_breaches.size();
    breaches_.insert(breaches_.end(), epoch_breaches.begin(),
                     epoch_breaches.end());
  }

  predictor_->observe(realized);
  return report;
}

ControlLoopResult run_control_loop(
    const Graph& g, const PathSystem& system, const EventTrace& trace,
    const DemandStreamOptions& stream_options, const EngineOptions& options,
    std::uint64_t seed,
    const std::function<void(const EpochReport&)>& on_epoch) {
  SOR_SPAN("engine/control_loop");
  // Disjoint sub-seeds for the demand stream (the trace generator used
  // `seed` directly; replay must not re-correlate them).
  std::uint64_t state = seed;
  const std::uint64_t stream_seed = splitmix64(state);

  DemandStream stream(g, stream_options, stream_seed);
  EpochController controller(g, system, options);
  ControlLoopResult result;
  std::vector<double> congestions;
  std::vector<double> regrets;

  for (std::size_t t = 0; t < trace.num_epochs; ++t) {
    const std::span<const Event> events = trace.events_at(t);
    for (const Event& event : events) {
      if (event.kind == EventKind::kDemandDrift) {
        stream.apply_drift(event.drift_sigma, event.drift_stream);
      }
    }
    Demand realized = stream.at_epoch(t);
    // Batched demand ingestion: updates serving frontends queued since
    // the previous epoch fold into this epoch's realized matrix. With no
    // enqueued updates the drain is a no-op and the run stays
    // byte-identical to a service-free one.
    if (options.service != nullptr) {
      for (const serve::DemandUpdate& u : options.service->drain_updates()) {
        realized.add(u.src, u.dst, u.amount);
      }
    }
    EpochReport report = controller.step(events, realized);
    result.total_solve_ms += report.solve_ms;
    result.warm_accepts += report.warm_accepted ? 1 : 0;
    result.total_churn += report.repair.churn();
    congestions.push_back(report.congestion);
    if (report.quality.shadow_sampled) {
      regrets.push_back(report.quality.regret);
      ++result.shadow_solves;
    }
    result.total_top_path_flips += report.quality.top_path_flips;
    if (on_epoch) on_epoch(report);
    result.epochs.push_back(std::move(report));
  }
  result.congestion_summary = summarize(congestions);
  result.prediction_error_summary = controller.prediction_errors();
  result.breaches = controller.breaches();
  result.health_status = controller.health_status();
  result.regret_summary = summarize(regrets);
  result.predictor_mape_summary = controller.prediction_mapes();
  return result;
}

}  // namespace sor::engine
