#include "engine/controller.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "cache/cache.hpp"
#include "core/failures.hpp"
#include "flow/mcf.hpp"
#include "serve/service.hpp"
#include "telemetry/memory.hpp"
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

void EpochController::append_candidates(RestrictedProblem& problem,
                                        const Commodity& c,
                                        std::vector<PathId>* ids) const {
  if (append_commodity(problem, c, *system_, &repairer_.activation(), ids) >
      0) {
    return;
  }
  // Pair outside the installed system (or its mandatory fallback was
  // unreachable) — last-resort surviving-graph shortest path, the
  // engine-side mirror of RouterOptions::add_shortest_fallback.
  const Path fallback = repairer_.surviving_shortest_path(c.src, c.dst);
  SOR_CHECK_MSG(fallback.src != kInvalidVertex,
                "pair (" << c.src << "," << c.dst
                         << ") disconnected on the surviving graph");
  telemetry::Recorder::global().record(
      "engine/stranded", {{"src", static_cast<std::uint64_t>(c.src)},
                          {"dst", static_cast<std::uint64_t>(c.dst)},
                          {"hops", fallback.hops()}});
  problem.add_candidate(fallback);
  if (ids != nullptr) ids->push_back(kInvalidPathId);
}

RestrictedProblem EpochController::build_problem(
    const Demand& demand, std::vector<PathId>& ids) const {
  SOR_SPAN("engine/build_problem");
  RestrictedProblem problem;
  problem.graph = graph_;
  ids.clear();
  for (const Commodity& c : demand.commodities()) {
    append_candidates(problem, c, &ids);
  }
  return problem;
}

double EpochController::reroute(std::span<const Commodity> realized,
                                RestrictedProblem&& solved,
                                std::vector<double>&& shares) const {
  // The activation mask does not change within an epoch, so a pair the
  // prediction also had keeps the candidates it was solved on, with the
  // realized demand and the shares the install gave them. A pair only the
  // realized matrix has appends its own candidates (or the fallback) to
  // the table and, with nothing installed for it, splits evenly; a pair
  // only the prediction had drops out. Both commodity lists are sorted by
  // pair, so one walk matches them.
  RestrictedProblem problem = std::move(solved);
  const std::vector<RestrictedCommodity> predicted =
      std::exchange(problem.commodities, {});
  problem.commodities.reserve(realized.size());
  const auto pair_of = [&](const RestrictedCommodity& c) {
    const PathView first = problem.paths[c.begin];
    return VertexPair{first.src, first.dst};
  };
  std::size_t j = 0;
  for (const Commodity& c : realized) {
    const VertexPair pair{c.src, c.dst};
    while (j < predicted.size() && pair_of(predicted[j]) < pair) ++j;
    if (j < predicted.size() && pair_of(predicted[j]) == pair) {
      problem.commodities.push_back({c.amount, predicted[j].begin,
                                     predicted[j].end});
    } else {
      append_candidates(problem, c);
    }
  }
  shares.resize(problem.paths.size(), 0.0);
  return route_restricted_fractions(problem, shares).congestion;
}

std::vector<double> EpochController::remap_fractions(
    std::span<const PathId> ids) const {
  std::vector<double> fractions(ids.size(), 0.0);
  for (std::size_t q = 0; q < ids.size(); ++q) {
    if (ids[q] < installed_shares_.size()) {
      fractions[q] = installed_shares_[ids[q]];
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

  // The realized matrix's commodities, sorted by pair: the repair's
  // support, the reroute's commodities and the shadow's.
  std::vector<Commodity> commodities;
  {
    SOR_SPAN("engine/repair");
    commodities = realized.commodities();
    std::vector<VertexPair> support;
    support.reserve(commodities.size());
    for (const Commodity& c : commodities) support.push_back({c.src, c.dst});
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

  // Predict: the predictor scores its pending prediction against the
  // realized matrix, then folds the matrix in for the next epoch. The
  // bootstrap epoch has no prediction and routes the realized matrix.
  std::optional<ScoredPrediction> scored;
  {
    SOR_SPAN("engine/predict");
    scored = predictor_->observe(realized);
    if (scored) {
      report.prediction_error = scored->error;
      const PredictorScore& score = scored->score;
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
  const Demand& target = scored ? scored->predicted : realized;
  report.predicted_total = target.total();

  std::vector<PathId> candidate_ids;
  RestrictedProblem problem = build_problem(target, candidate_ids);
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
    // Only MWU solves return dual lengths, so only they warm-start.
    const bool have_warm = options_.warm_start && installed_ != nullptr &&
                           !installed_->empty() && !warm_lengths_.empty();
    if (options_.backend == EngineBackend::kMwu) {
      RestrictedWarmStart warm;
      RestrictedMwuOptions mwu;
      mwu.epsilon = options_.epsilon;
      if (have_warm) {
        warm.fractions = remap_fractions(candidate_ids);
        warm.lengths = warm_lengths_;
        mwu.warm = &warm;
      }
      solution = solve_restricted_mwu(problem, mwu);
    } else {
      solution = solve_restricted_exact(problem);
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
  if (solution.truncated) {
    telemetry::Recorder::global().record(
        "engine/solve_truncated",
        {{"epoch", static_cast<std::uint64_t>(report.epoch)},
         {"deadline_ms", options_.solve_deadline_ms},
         {"solve_ms", report.solve_ms},
         {"phases", static_cast<std::uint64_t>(solution.phases)},
         {"congestion", solution.congestion}});
  }

  // The table this install replaces: the quality tracker diffs against it.
  const std::shared_ptr<const SplitTable> previous = installed_;
  // Each candidate's share of the installed split, by candidate id: the
  // warm start re-applies it by activation id, the reroute as it stands.
  std::vector<double> shares;
  {
    SOR_SPAN("engine/install");
    installed_ = std::make_shared<const SplitTable>(
        SplitTable::from_weights(problem, solution.weights, &shares));
    installed_shares_.assign(repairer_.activation().size(), 0.0);
    for (std::size_t q = 0; q < candidate_ids.size(); ++q) {
      if (candidate_ids[q] != kInvalidPathId) {
        installed_shares_[candidate_ids[q]] = shares[q];
      }
    }
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
  if (!scored) {
    report.congestion = solution.congestion;
  } else {
    SOR_SPAN("engine/reroute");
    report.congestion =
        reroute(commodities, std::move(problem), std::move(shares));
  }
  // Routing-quality observatory: install churn every epoch, the shadow-
  // optimal regret solve on sampled epochs. All deterministic (the shadow
  // MCF is deterministic and the sample points are a pure function of the
  // epoch index), so quality figures replay byte-identically — but they
  // stay out of the replay digest v1 (see EngineOptions::quality).
  {
    SOR_SPAN("engine/quality");
    quality_.observe_install(repairer_.activation(), previous.get(),
                             *installed_, report.quality);
  }
  if (quality_.shadow_due(report.epoch)) {
    SOR_SPAN("engine/shadow");
    // OPT(D) of the realized matrix on the network that exists, the
    // regret denominator (0 when the matrix is empty): with links down,
    // the installed split cannot use them, and neither may the optimum it
    // is measured against.
    McfResult shadow;
    if (!commodities.empty()) {
      SOR_SPAN("lp/shadow");
      McfOptions mcf;
      mcf.epsilon = options_.quality.shadow_epsilon;
      FailureScenario scenario;
      scenario.alive.assign(repairer_.alive().begin(),
                            repairer_.alive().end());
      shadow = min_congestion_routing(surviving_graph(*graph_, scenario),
                                      commodities, mcf);
    }
    report.quality.shadow_sampled = true;
    report.quality.shadow_opt = shadow.congestion;
    report.quality.shadow_lower_bound = shadow.lower_bound;
    report.quality.shadow_truncated = shadow.truncated;
    report.quality.regret =
        shadow.congestion > 0 ? report.congestion / shadow.congestion : 0;
    telemetry::Recorder::global().record(
        "engine/shadow",
        {{"epoch", static_cast<std::uint64_t>(report.epoch)},
         {"achieved", report.congestion},
         {"shadow_opt", shadow.congestion},
         {"regret", report.quality.regret},
         {"truncated", shadow.truncated}});
  }
  // Quality sketches; they export through Prometheus as sor_quality_*.
  // Regret and MAPE only feed on the epochs that produced them, so their
  // sketches never see sentinel values.
  if (report.quality.shadow_sampled) {
    SOR_SKETCH("quality/regret").observe(report.quality.regret);
  }
  if (report.quality.predictor_mape >= 0) {
    SOR_SKETCH("quality/predictor_mape").observe(report.quality.predictor_mape);
  }

  SOR_GAUGE("engine/last_congestion").set(report.congestion);
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

  // Runtime health: feed the congestion sketch, snapshot the figures
  // into the report, and check the SLOs. report.congestion is
  // deterministic, so the congestion sketch and its max (the watermark)
  // are too; the latency figures are wall clock and stay out of the
  // replay digest. Peak RSS at the epoch boundary is wall-clock-free but
  // allocator-dependent, so it is digest-excluded like them.
  SOR_SKETCH("engine/congestion").observe(report.congestion);
  const telemetry::MemoryUsage memory = telemetry::sample_memory_usage();

  congestion_watermark_ = std::max(congestion_watermark_, report.congestion);
  const StatsSummary solve_summary = solve_sketch_.summary();
  report.health.solve_p50_ms = solve_summary.p50 * 1e3;
  report.health.solve_p95_ms = solve_summary.p95 * 1e3;
  report.health.solve_p99_ms = solve_summary.p99 * 1e3;
  report.health.congestion_watermark = congestion_watermark_;
  report.health.cache_hit_rate =
      cache::ArtifactCache::global().stats().hit_rate();
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
