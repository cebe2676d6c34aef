// Unit tests for src/telemetry/observer: the convergence-trace reservoir,
// progress/deadline hooks threaded through the solvers, the global
// collector, and the zero-overhead guarantee when the SOR_TELEMETRY kill
// switch is off.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <vector>

#include "flow/mcf.hpp"
#include "graph/graph.hpp"
#include "lp/path_lp.hpp"
#include "lp/simplex.hpp"
#include "telemetry/export.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace sor {
namespace {

// Recording tests must work regardless of the SOR_TELEMETRY environment
// the suite runs under.
struct ScopedEnable {
  explicit ScopedEnable(bool on = true) : previous(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~ScopedEnable() { telemetry::set_enabled(previous); }
  bool previous;
};

Graph diamond() {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

RestrictedProblem diamond_problem(const Graph& g, double demand) {
  RestrictedProblem problem;
  problem.graph = &g;
  RestrictedCommodity c;
  c.demand = demand;
  c.candidates.push_back(Path{0, 3, {0, 2}});
  c.candidates.push_back(Path{0, 3, {1, 3}});
  problem.commodities.push_back(std::move(c));
  return problem;
}

LpProblem small_lp() {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6 as minimization.
  LpProblem lp;
  lp.objective = {-1, -1};
  lp.constraints.push_back({{1, 2}, ConstraintSense::kLe, 4});
  lp.constraints.push_back({{3, 1}, ConstraintSense::kLe, 6});
  return lp;
}

TEST(SolveObserver, ReservoirStaysBoundedAndOrdered) {
  const ScopedEnable enable;
  telemetry::ConvergenceCollector::global().clear();
  {
    telemetry::SolveObserver observer("test_reservoir");
    const std::uint64_t n = 100000;
    for (std::uint64_t i = 1; i <= n; ++i) {
      // Fluctuating raw objective; the stored envelope must still be
      // monotone.
      const double objective = 1.0 / static_cast<double>(i) +
                               ((i % 7 == 0) ? 0.5 : 0.0);
      observer.observe(i, objective, 0);
    }
    EXPECT_EQ(observer.iterations(), n);
    EXPECT_LT(observer.points().size(), telemetry::SolveObserver::kMaxPoints);
    EXPECT_GE(observer.points().size(),
              telemetry::SolveObserver::kMaxPoints / 2);
    for (std::size_t i = 1; i < observer.points().size(); ++i) {
      EXPECT_LT(observer.points()[i - 1].iteration,
                observer.points()[i].iteration);
      EXPECT_GE(observer.points()[i - 1].objective + 1e-12,
                observer.points()[i].objective);
    }
  }
  const auto traces = telemetry::ConvergenceCollector::global().snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].solver, "test_reservoir");
  EXPECT_EQ(traces[0].iterations, 100000u);
}

TEST(SolveObserver, GapKnownOnlyOnceBoundAppearsAndEnvelopesHold) {
  const ScopedEnable enable;
  telemetry::ConvergenceCollector::global().clear();
  telemetry::SolveObserver observer("test_gap");
  observer.observe(1, 10.0, 0);    // no dual info yet
  observer.observe(2, 8.0, 2.0);   // bound appears
  observer.observe(3, 9.0, 1.0);   // worse on both; envelopes must hold
  observer.observe(4, 4.0, 4.0);
  const auto& pts = observer.points();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].gap, -1);
  EXPECT_EQ(pts[0].bound, 0);
  EXPECT_NEAR(pts[1].gap, 8.0 / 2.0 - 1, 1e-12);
  // Envelope: objective keeps the best (min), bound the best (max).
  EXPECT_NEAR(pts[2].objective, 8.0, 1e-12);
  EXPECT_NEAR(pts[2].bound, 2.0, 1e-12);
  EXPECT_NEAR(pts[3].gap, 0.0, 1e-12);
}

TEST(SolveObserver, CountersTravelWithTheTrace) {
  const ScopedEnable enable;
  telemetry::ConvergenceCollector::global().clear();
  {
    telemetry::SolveObserver observer("test_counts", "labelled");
    observer.count("widgets", 3);
    observer.count("widgets", 2);
    observer.count("gadgets");
  }
  const auto traces = telemetry::ConvergenceCollector::global().snapshot();
  ASSERT_EQ(traces.size(), 1u);  // counts-only traces are kept
  EXPECT_EQ(traces[0].label, "labelled");
  ASSERT_EQ(traces[0].counters.size(), 2u);
  EXPECT_EQ(traces[0].counters[0].first, "widgets");
  EXPECT_EQ(traces[0].counters[0].second, 5u);
  EXPECT_EQ(traces[0].counters[1].second, 1u);
}

TEST(Collector, CapacityBoundsAndCountsDrops) {
  telemetry::ConvergenceCollector collector(2);
  for (int i = 0; i < 5; ++i) {
    telemetry::ConvergenceTrace t;
    t.solver = "s";
    t.iterations = 1;
    collector.add(std::move(t));
  }
  EXPECT_EQ(collector.snapshot().size(), 2u);
  EXPECT_EQ(collector.dropped(), 3u);
  collector.clear();
  EXPECT_TRUE(collector.snapshot().empty());
  EXPECT_EQ(collector.dropped(), 0u);
  collector.set_capacity(4);
  EXPECT_EQ(collector.capacity(), 4u);
}

TEST(ProgressScope, NestsAndRestores) {
  EXPECT_EQ(telemetry::current_reporter(), nullptr);
  telemetry::ProgressReporter outer;
  {
    telemetry::ProgressScope a(outer);
    EXPECT_EQ(telemetry::current_reporter(), &outer);
    telemetry::ProgressReporter inner;
    {
      telemetry::ProgressScope b(inner);
      EXPECT_EQ(telemetry::current_reporter(), &inner);
    }
    EXPECT_EQ(telemetry::current_reporter(), &outer);
  }
  EXPECT_EQ(telemetry::current_reporter(), nullptr);
  EXPECT_FALSE(telemetry::solve_deadline_exceeded());
}

TEST(ProgressScope, PropagatesIntoPoolWorkers) {
  telemetry::ProgressReporter reporter;
  reporter.cancel = [] { return true; };
  telemetry::ProgressScope scope(reporter);
  std::atomic<int> exceeded{0};
  parallel_for(64, [&](std::size_t) {
    if (telemetry::solve_deadline_exceeded()) exceeded.fetch_add(1);
  });
  EXPECT_EQ(exceeded.load(), 64);
}

TEST(ProgressScope, OnPointSeesEveryObservationBeforeDownsampling) {
  const ScopedEnable enable;
  telemetry::ConvergenceCollector::global().clear();
  std::uint64_t point_calls = 0;
  std::uint64_t trace_calls = 0;
  telemetry::ProgressReporter reporter;
  reporter.on_point = [&](const telemetry::ConvergenceTrace&,
                          const telemetry::ConvergencePoint&) {
    ++point_calls;
  };
  reporter.on_trace = [&](const telemetry::ConvergenceTrace&) {
    ++trace_calls;
  };
  telemetry::ProgressScope scope(reporter);
  {
    telemetry::SolveObserver observer("test_hooks");
    for (std::uint64_t i = 1; i <= 5000; ++i) observer.observe(i, 1.0, 0);
  }
  EXPECT_EQ(point_calls, 5000u);  // every observation, not the downsample
  EXPECT_EQ(trace_calls, 1u);
}

TEST(Deadline, ExpiredDeadlineTruncatesSimplex) {
  telemetry::ProgressReporter reporter;
  reporter.deadline_seconds = 1e-12;  // long expired at the first poll
  telemetry::ProgressScope scope(reporter);
  const LpSolution s = solve_lp(small_lp());
  EXPECT_EQ(s.status, LpStatus::kTruncated);
  EXPECT_TRUE(s.x.empty());
}

TEST(Deadline, CancelHookTruncatesSimplex) {
  telemetry::ProgressReporter reporter;
  reporter.cancel = [] { return true; };
  telemetry::ProgressScope scope(reporter);
  EXPECT_EQ(solve_lp(small_lp()).status, LpStatus::kTruncated);
}

TEST(Deadline, IterLimitIsDistinguishableFromTruncation) {
  // Without any reporter the pivot cap yields kIterLimit, not kTruncated.
  const LpSolution s = solve_lp(small_lp(), 1);
  EXPECT_EQ(s.status, LpStatus::kIterLimit);
  EXPECT_TRUE(s.x.empty());
}

TEST(Deadline, ExactBackendFallsBackToUniformSplit) {
  const Graph g = diamond();
  const RestrictedProblem problem = diamond_problem(g, 1.0);
  telemetry::ProgressReporter reporter;
  reporter.cancel = [] { return true; };
  telemetry::ProgressScope scope(reporter);
  const RestrictedSolution s = solve_restricted_exact(problem);
  EXPECT_TRUE(s.truncated);
  // The documented fallback routes a uniform split — optimal on the
  // symmetric diamond, and always a feasible routing.
  EXPECT_NEAR(s.congestion, 0.5, 1e-9);
}

TEST(Deadline, MwuTruncatesAtPhaseBoundaryWithFeasiblePrefix) {
  // Asymmetric capacities + tight epsilon so the full solve needs
  // several phases; the truncated one must stop after the first.
  Graph g(4);
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 4.0);
  g.add_edge(2, 3, 1.0);
  const RestrictedProblem problem = diamond_problem(g, 5.0);
  RestrictedMwuOptions options;
  options.epsilon = 0.01;
  const RestrictedSolution full = solve_restricted_mwu(problem, options);
  ASSERT_FALSE(full.truncated);
  ASSERT_GT(full.phases, 1u);

  telemetry::ProgressReporter reporter;
  reporter.cancel = [] { return true; };
  telemetry::ProgressScope scope(reporter);
  const RestrictedSolution s = solve_restricted_mwu(problem, options);
  EXPECT_TRUE(s.truncated);
  EXPECT_EQ(s.phases, 1u);
  // The scaled one-phase prefix is a real routing of the full demand.
  EXPECT_TRUE(std::isfinite(s.congestion));
  EXPECT_GE(s.congestion, full.congestion - 1e-9);
}

TEST(Deadline, McfTruncatesAtPhaseBoundaryWithCertifiedBound) {
  // Asymmetric capacities force the phase loop to mix paths: after one
  // phase all flow rides a single shortest path, far from the tight
  // capacity-proportional split, so the full solve needs many phases.
  Graph g(4);
  g.add_edge(0, 1, 4.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 4.0);
  g.add_edge(2, 3, 1.0);
  std::vector<Commodity> commodities{{0, 3, 5.0}};
  McfOptions options;
  options.epsilon = 0.01;
  const McfResult full = min_congestion_routing(g, commodities, options);
  ASSERT_FALSE(full.truncated);
  ASSERT_GT(full.phases, 1u);

  telemetry::ProgressReporter reporter;
  reporter.cancel = [] { return true; };
  telemetry::ProgressScope scope(reporter);
  const McfResult s = min_congestion_routing(g, commodities, options);
  EXPECT_TRUE(s.truncated);
  EXPECT_EQ(s.phases, 1u);
  EXPECT_TRUE(std::isfinite(s.congestion));
  EXPECT_GT(s.congestion, 0);
  // The dual bound is certified regardless of truncation.
  EXPECT_LE(s.lower_bound, full.congestion + 1e-9);
}

TEST(KillSwitch, DisabledTelemetryInvokesNoCallbacksAndSolvesIdentically) {
  LpSolution on;
  {
    const ScopedEnable enable(true);
    on = solve_lp(small_lp());
  }
  std::uint64_t callbacks = 0;
  LpSolution off;
  {
    const ScopedEnable disable(false);
    telemetry::ProgressReporter reporter;
    reporter.on_point = [&](const telemetry::ConvergenceTrace&,
                            const telemetry::ConvergencePoint&) {
      ++callbacks;
    };
    reporter.on_trace = [&](const telemetry::ConvergenceTrace&) {
      ++callbacks;
    };
    telemetry::ProgressScope scope(reporter);
    telemetry::SolveObserver probe("test_disabled");
    probe.observe(1, 1.0, 0);
    EXPECT_FALSE(probe.active());
    EXPECT_EQ(probe.iterations(), 0u);
    off = solve_lp(small_lp());
  }
  EXPECT_EQ(callbacks, 0u);
  // Bit-identical results: observability must not perturb the solve.
  ASSERT_EQ(off.status, on.status);
  ASSERT_EQ(off.x.size(), on.x.size());
  for (std::size_t i = 0; i < on.x.size(); ++i) {
    EXPECT_EQ(off.x[i], on.x[i]);
  }
  EXPECT_EQ(off.objective_value, on.objective_value);
  EXPECT_EQ(off.iterations, on.iterations);
}

TEST(KillSwitch, DeadlineStillWorksWithTelemetryOff) {
  // The budget is control-plane behavior, not observability.
  const ScopedEnable disable(false);
  telemetry::ProgressReporter reporter;
  reporter.cancel = [] { return true; };
  telemetry::ProgressScope scope(reporter);
  EXPECT_EQ(solve_lp(small_lp()).status, LpStatus::kTruncated);
}

TEST(Export, ConvergenceBlockSerializesTraces) {
  const ScopedEnable enable;
  auto& collector = telemetry::ConvergenceCollector::global();
  collector.clear();
  {
    telemetry::SolveObserver observer("test_export", "lbl");
    observer.observe(1, 2.0, 1.0);
    observer.observe(2, 1.5, 1.2);
    observer.count("steps", 2);
  }
  const telemetry::JsonValue doc = telemetry::convergence_to_json();
  EXPECT_EQ(doc.at("capacity").as_number(),
            static_cast<double>(collector.capacity()));
  EXPECT_EQ(doc.at("dropped").as_number(), 0);
  ASSERT_EQ(doc.at("traces").size(), 1u);
  const telemetry::JsonValue& trace = doc.at("traces").at(0);
  EXPECT_EQ(trace.at("solver").as_string(), "test_export");
  EXPECT_EQ(trace.at("label").as_string(), "lbl");
  EXPECT_EQ(trace.at("iterations").as_number(), 2);
  EXPECT_FALSE(trace.at("truncated").as_bool());
  ASSERT_EQ(trace.at("points").size(), 2u);
  EXPECT_NEAR(trace.at("points").at(1).at("gap").as_number(), 1.5 / 1.2 - 1,
              1e-9);
  collector.clear();
}

}  // namespace
}  // namespace sor
