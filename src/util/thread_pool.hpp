#pragma once

// A small fixed-size thread pool, and the claimable task that runs on it.
//
// The pool is deliberately simple: a single mutex-protected FIFO of
// std::function tasks. The workloads in this library are coarse-grained
// (tree embeddings, per-pair sampling batches, a phase's dual bound), so
// queue contention is negligible and a work-stealing deque would add
// complexity without measurable benefit. Idle workers sleep on a condition
// variable; none spins.
//
// A ClaimableTask runs once, on whichever of a pool worker and its owner
// claims it first. The owner never waits on a task no worker has started:
// it runs that task itself. So a task submitted from a pool worker, or to
// a pool whose workers are all busy, cannot deadlock, and a task shorter
// than a worker's wake-up costs only its submit.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sor {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 means
  /// hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains and joins. Tasks already queued are completed.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; the future resolves when it completes (exceptions are
  /// propagated through the future).
  template <typename F>
  std::future<void> submit(F&& f) {
    auto task =
        std::make_shared<std::packaged_task<void()>>(std::forward<F>(f));
    std::future<void> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Process-wide default pool, created on first use.
  static ThreadPool& global();

 private:
  friend class ClaimableTask;

  void enqueue(std::function<void()> task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// One body, submitted to a pool on construction and run exactly once: by
/// the worker that dequeues it, or by the owner's run_or_wait() or
/// try_run(), whichever claims it first. The body's references need only
/// outlive the task: destruction claims it, or waits for the worker that
/// has it, so no worker runs the body afterwards (a worker that dequeues
/// it later finds it claimed and drops it). Owner calls come from one
/// thread.
class ClaimableTask {
 public:
  ClaimableTask(ThreadPool& pool, std::function<void()> body);
  ~ClaimableTask();

  ClaimableTask(const ClaimableTask&) = delete;
  ClaimableTask& operator=(const ClaimableTask&) = delete;

  /// Runs the body here unless a worker has claimed it; true if it ran
  /// here (its exception, if any, propagates). A later call runs nothing
  /// and returns the same answer.
  bool try_run();
  /// Waits until the body has run, wherever it ran; rethrows what it threw
  /// on a worker. Call after try_run().
  void wait();
  /// try_run(), then wait().
  void run_or_wait() {
    if (!try_run()) wait();
  }

 private:
  enum class Stage { kQueued, kClaimed, kDone };
  /// One mutex guards the stage, and a worker announces kDone through the
  /// condition variable: no wake-up can be lost between the worker's
  /// store and the owner's wait.
  struct State {
    std::function<void()> body;
    std::mutex mu;
    std::condition_variable done;
    Stage stage = Stage::kQueued;  // guarded by mu
    std::exception_ptr error;      // thrown on a worker; read after kDone
  };

  /// Moves the stage from kQueued to kClaimed; false if the other side
  /// already did.
  static bool claim(State& state);
  /// Returns once the worker that claimed the body has run it.
  void await_worker() const;

  std::shared_ptr<State> state_;
  bool claimed_here_ = false;
};

}  // namespace sor
