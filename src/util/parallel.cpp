#include "util/parallel.hpp"

#include <deque>
#include <mutex>

#include "telemetry/observer.hpp"
#include "telemetry/span.hpp"

namespace sor {

namespace {

/// Installs the submitting thread's span cursor on a pool worker for the
/// duration of a chunk, so SOR_SPAN inside parallel bodies nests under the
/// span active at the parallel_for call site.
class SpanContextGuard {
 public:
  explicit SpanContextGuard(telemetry::detail::SpanNode* parent)
      : saved_(telemetry::detail::current_span()) {
    telemetry::detail::set_current_span(parent);
  }
  ~SpanContextGuard() { telemetry::detail::set_current_span(saved_); }

 private:
  telemetry::detail::SpanNode* saved_;
};

/// Same propagation for the progress-reporter state, so a deadline
/// installed around a parallel solve is honored by solves running on pool
/// workers too (shared state: the deadline base and cancel predicate are
/// read-only under the scope).
class ReporterContextGuard {
 public:
  explicit ReporterContextGuard(telemetry::detail::ReporterState* parent)
      : saved_(telemetry::detail::current_reporter_state()) {
    telemetry::detail::set_current_reporter_state(parent);
  }
  ~ReporterContextGuard() {
    telemetry::detail::set_current_reporter_state(saved_);
  }

 private:
  telemetry::detail::ReporterState* saved_;
};

ThreadPool* g_default_pool_override = nullptr;

}  // namespace

ThreadPool& default_pool() {
  return g_default_pool_override != nullptr ? *g_default_pool_override
                                            : ThreadPool::global();
}

ScopedDefaultPool::ScopedDefaultPool(std::size_t num_threads)
    : pool_(num_threads), saved_(g_default_pool_override) {
  g_default_pool_override = &pool_;
}

ScopedDefaultPool::~ScopedDefaultPool() { g_default_pool_override = saved_; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  ThreadPool* pool) {
  if (n == 0) return;
  if (pool == nullptr) pool = &default_pool();

  const std::size_t workers = pool->num_threads();
  if (n == 1 || workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // One chunk per worker plus one for the caller; a shared atomic cursor
  // inside each chunk is unnecessary because chunks are contiguous.
  const std::size_t chunks = std::min(n, workers + 1);
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;

  std::mutex err_mu;
  std::exception_ptr first_error;
  telemetry::detail::SpanNode* span_parent = telemetry::detail::current_span();
  telemetry::detail::ReporterState* reporter_parent =
      telemetry::detail::current_reporter_state();

  auto run_chunk = [&](std::size_t c) {
    const SpanContextGuard span_guard(span_parent);
    const ReporterContextGuard reporter_guard(reporter_parent);
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    try {
      for (std::size_t i = begin; i < end; ++i) body(i);
    } catch (...) {
      std::lock_guard lock(err_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  // The caller runs every chunk no worker has claimed, then waits only on
  // chunks a worker has started: a nested loop on a busy pool completes.
  std::deque<ClaimableTask> tasks;
  for (std::size_t c = 1; c < chunks; ++c) {
    tasks.emplace_back(*pool, [&run_chunk, c] { run_chunk(c); });
  }
  run_chunk(0);
  for (ClaimableTask& task : tasks) task.try_run();
  for (ClaimableTask& task : tasks) task.wait();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sor
