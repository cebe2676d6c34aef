#include "telemetry/observer.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/recorder.hpp"  // monotonic_seconds

namespace sor::telemetry {

namespace detail {

namespace {
thread_local ReporterState* g_reporter_state = nullptr;
}  // namespace

ReporterState* current_reporter_state() { return g_reporter_state; }
void set_current_reporter_state(ReporterState* state) {
  g_reporter_state = state;
}

}  // namespace detail

ProgressScope::ProgressScope(ProgressReporter& reporter)
    : saved_(detail::current_reporter_state()) {
  state_.reporter = &reporter;
  state_.start = std::chrono::steady_clock::now();
  detail::set_current_reporter_state(&state_);
}

ProgressScope::~ProgressScope() { detail::set_current_reporter_state(saved_); }

ProgressReporter* current_reporter() {
  detail::ReporterState* state = detail::current_reporter_state();
  return state != nullptr ? state->reporter : nullptr;
}

bool solve_deadline_exceeded() {
  detail::ReporterState* state = detail::current_reporter_state();
  if (state == nullptr) return false;
  const ProgressReporter& reporter = *state->reporter;
  if (reporter.deadline_seconds > 0) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::duration<double>>(
        std::chrono::steady_clock::now() - state->start);
    if (elapsed.count() >= reporter.deadline_seconds) return true;
  }
  return reporter.cancel && reporter.cancel();
}

SolveObserver::SolveObserver(std::string_view solver, std::string_view label,
                             std::size_t max_points)
    : active_(enabled()),
      best_objective_(std::numeric_limits<double>::infinity()) {
  if (!active_) return;
  trace_.solver = solver;
  trace_.label = label;
  trace_.max_points = std::max<std::size_t>(max_points, 2);
  trace_.points.reserve(std::min<std::size_t>(trace_.max_points, 256));
}

SolveObserver::~SolveObserver() {
  // Flush only traces that recorded something; counts-only traces (e.g.
  // the sampler's) are kept too.
  if (!active_ || (trace_.iterations == 0 && trace_.counters.empty())) return;
  ConvergenceCollector::global().add(std::move(trace_));
}

void SolveObserver::observe(std::uint64_t iteration, double objective,
                            double bound) {
  if (!active_) return;
  ++trace_.iterations;
  // Best-so-far envelopes: the exported trajectory is monotone even when
  // the raw per-iteration values fluctuate (MWU upper bounds do).
  best_objective_ = std::min(best_objective_, objective);
  if (bound > 0) best_bound_ = std::max(best_bound_, bound);

  if ((trace_.iterations - 1) % stride_ != 0) return;

  ConvergencePoint point;
  point.iteration = iteration;
  point.objective = best_objective_;
  point.bound = best_bound_;
  if (best_bound_ > 0) point.gap = best_objective_ / best_bound_ - 1.0;
  point.seconds = monotonic_seconds();
  trace_.points.push_back(point);
  if (trace_.points.size() >= trace_.max_points) {
    // Thin to every other retained point and double the stride: the
    // reservoir stays within [max_points/2, max_points) and keeps an
    // even, order-preserving cover of the whole solve.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < trace_.points.size(); i += 2) {
      trace_.points[kept++] = trace_.points[i];
    }
    trace_.points.resize(kept);
    stride_ *= 2;
  }
}

void SolveObserver::count(std::string_view key, std::uint64_t n) {
  if (!active_) return;
  for (auto& [existing, value] : trace_.counters) {
    if (existing == key) {
      value += n;
      return;
    }
  }
  trace_.counters.emplace_back(std::string(key), n);
}

ConvergenceCollector& ConvergenceCollector::global() {
  static ConvergenceCollector* collector = new ConvergenceCollector();
  return *collector;
}

ConvergenceCollector::ConvergenceCollector(std::size_t capacity)
    : capacity_(capacity) {}

void ConvergenceCollector::add(ConvergenceTrace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (traces_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  traces_.push_back(std::move(trace));
}

std::vector<ConvergenceTrace> ConvergenceCollector::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_;
}

std::uint64_t ConvergenceCollector::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t ConvergenceCollector::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void ConvergenceCollector::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
}

void ConvergenceCollector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
  dropped_ = 0;
}

}  // namespace sor::telemetry
