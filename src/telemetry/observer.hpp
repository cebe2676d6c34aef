#pragma once

// Solver introspection: iteration-level convergence traces and progress
// and deadline hooks.
//
// The metric registry answers "how often", spans answer "where did the
// time go", the recorder answers "what happened" — this layer answers
// "how is the solve *going*": objective and dual-bound trajectories per
// iteration, whether a solve is converging or stalling, and whether it
// should keep running at all. Three cooperating pieces:
//
//  * SolveObserver — created BY an iterative solver at solve entry. Each
//    observe() call offers one (iteration, objective, bound) sample; the
//    observer keeps an order-preserving, deterministic downsample bounded
//    at kMaxPoints (stride doubling: keep everything until full, then
//    thin to every other point and double the stride), so a million-pivot
//    solve emits O(1k) trace points. Stored values are best-so-far
//    envelopes (min objective, max bound), which makes the exported
//    trace's invariants — objective non-increasing, bound non-decreasing,
//    gap non-increasing — hold by construction; check_bench_json enforces
//    them. Destruction flushes the finished trace into the global
//    ConvergenceCollector. Honors the SOR_TELEMETRY kill switch: when
//    telemetry is off at construction, every method is a no-op on a
//    cached bool and no callback is ever invoked.
//
//  * ProgressReporter / ProgressScope — installed BY a caller around a
//    solve (thread-local, RAII, propagated into parallel_for workers like
//    span cursors). Carries optional per-point/per-trace callbacks and
//    the solve budget: deadline_seconds and/or a cancel() predicate make
//    solve_deadline_exceeded() true, which solvers poll at safe points
//    (phase boundaries, every 64 pivots) and answer with a *truncated*
//    status instead of stalling the caller. The budget is control-plane
//    behavior, not observability: it works with SOR_TELEMETRY=off (the
//    callbacks, like all recording, do not).
//
//  * ConvergenceCollector — process-global bounded sink of completed
//    traces (first-come keep, overflow counted in dropped()), serialized
//    by telemetry/export.hpp into the artifact schema v3 "convergence"
//    block and the Chrome trace export.

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace sor::telemetry {

/// One retained convergence sample. `objective` and `bound` are
/// best-so-far envelopes of the solver's primal value and dual lower
/// bound; `gap` is objective/bound - 1 when the bound is known (> 0) and
/// the sentinel -1 before any dual information exists. `seconds` is on
/// the shared monotonic_seconds() base so traces line up with spans and
/// recorder events.
struct ConvergencePoint {
  std::uint64_t iteration = 0;
  double seconds = 0;
  double objective = 0;
  double bound = 0;
  double gap = -1;
};

/// One finished solve's downsampled trajectory plus per-solve counters
/// (e.g. simplex "degenerate_pivots") that only make sense per solve, not
/// process-wide.
struct ConvergenceTrace {
  std::string solver;  // "simplex", "mwu", "mcf", "sampler", ...
  std::string label;   // free-form refinement: "phase1", "warm", "cold"
  std::uint64_t iterations = 0;  // total observe() calls, >= points.size()
  std::size_t max_points = 0;    // reservoir bound in force for this trace
  bool truncated = false;        // stopped by deadline/cancel, not converged
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<ConvergencePoint> points;
};

class SolveObserver;

/// Caller-side budget and hooks for the solves running beneath it.
/// Install with ProgressScope; solvers find it through current_reporter()
/// / solve_deadline_exceeded().
struct ProgressReporter {
  /// Wall-clock budget measured from ProgressScope installation;
  /// 0 = unlimited.
  double deadline_seconds = 0;
  /// Optional external cancellation; polled together with the deadline.
  std::function<bool()> cancel;
  /// Invoked for every observe() call of every solve under the scope
  /// (before downsampling), only while telemetry is enabled.
  std::function<void(const ConvergenceTrace&, const ConvergencePoint&)>
      on_point;
  /// Invoked with each finished trace at observer destruction, only while
  /// telemetry is enabled.
  std::function<void(const ConvergenceTrace&)> on_trace;
};

namespace detail {
/// Reporter plus the install-time stamp the deadline is measured from.
struct ReporterState {
  ProgressReporter* reporter = nullptr;
  std::chrono::steady_clock::time_point start;
};

/// Thread-local current reporter (null = none). Exposed so parallel_for
/// can propagate the submitting thread's reporter into pool workers; not
/// meant for direct use elsewhere.
ReporterState* current_reporter_state();
void set_current_reporter_state(ReporterState* state);
}  // namespace detail

/// RAII thread-local install of a ProgressReporter (stamps the deadline
/// base). Scopes nest; the innermost wins.
class ProgressScope {
 public:
  explicit ProgressScope(ProgressReporter& reporter);
  ~ProgressScope();

  ProgressScope(const ProgressScope&) = delete;
  ProgressScope& operator=(const ProgressScope&) = delete;

 private:
  detail::ReporterState state_;
  detail::ReporterState* saved_;
};

/// The innermost installed reporter, or null.
ProgressReporter* current_reporter();

/// True when the installed reporter's deadline has passed or its cancel()
/// predicate fires. Without a reporter (the common case) this is a single
/// thread-local load; solvers poll it at phase boundaries / every few
/// dozen pivots and return a truncated status instead of running on.
bool solve_deadline_exceeded();

/// Per-solve trace recorder; see the file comment for the contract.
class SolveObserver {
 public:
  static constexpr std::size_t kMaxPoints = 1024;

  explicit SolveObserver(std::string_view solver, std::string_view label = {},
                         std::size_t max_points = kMaxPoints);
  ~SolveObserver();

  SolveObserver(const SolveObserver&) = delete;
  SolveObserver& operator=(const SolveObserver&) = delete;

  /// Offers one sample. `iteration` must increase across calls (solvers
  /// pass their natural pivot/phase counter). Pass bound <= 0 while no
  /// dual information exists.
  void observe(std::uint64_t iteration, double objective, double bound);

  /// Bumps a per-solve counter carried in the trace.
  void count(std::string_view key, std::uint64_t n = 1);

  /// Marks the trace as stopped by deadline/cancellation.
  void mark_truncated() { trace_.truncated = true; }

  /// Telemetry was enabled when this observer was constructed; when
  /// false, every member function is a no-op.
  bool active() const { return active_; }

  std::uint64_t iterations() const { return trace_.iterations; }
  const std::vector<ConvergencePoint>& points() const { return trace_.points; }

 private:
  bool active_;
  ConvergenceTrace trace_;
  std::uint64_t stride_ = 1;
  double best_objective_;
  double best_bound_ = 0;
};

/// Process-global bounded sink of finished traces. First-come keep:
/// overflow traces are counted, not stored — the first solves of a run
/// are the representative ones, and a bench looping thousands of solves
/// must not grow the artifact without bound.
class ConvergenceCollector {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  static ConvergenceCollector& global();

  explicit ConvergenceCollector(std::size_t capacity = kDefaultCapacity);

  void add(ConvergenceTrace trace);
  std::vector<ConvergenceTrace> snapshot() const;
  std::uint64_t dropped() const;
  std::size_t capacity() const;
  void set_capacity(std::size_t capacity);
  /// Drops all traces and zeroes dropped(); for bench/test isolation.
  void clear();

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<ConvergenceTrace> traces_;
  std::uint64_t dropped_ = 0;
};

}  // namespace sor::telemetry
