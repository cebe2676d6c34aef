#include "util/thread_pool.hpp"

#include <algorithm>

namespace sor {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ClaimableTask::ClaimableTask(ThreadPool& pool, std::function<void()> body)
    : state_(std::make_shared<State>()) {
  state_->body = std::move(body);
  pool.enqueue([state = state_] {
    if (!claim(*state)) return;  // its owner has it
    try {
      state->body();
    } catch (...) {
      state->error = std::current_exception();
    }
    {
      std::lock_guard lock(state->mu);
      state->stage = Stage::kDone;
    }
    state->done.notify_all();
  });
}

ClaimableTask::~ClaimableTask() {
  if (!claimed_here_ && !claim(*state_)) await_worker();
}

bool ClaimableTask::try_run() {
  if (!claimed_here_ && claim(*state_)) {
    claimed_here_ = true;
    state_->body();
  }
  return claimed_here_;
}

void ClaimableTask::wait() {
  if (claimed_here_) return;
  await_worker();
  if (state_->error) std::rethrow_exception(state_->error);
}

bool ClaimableTask::claim(State& state) {
  std::lock_guard lock(state.mu);
  if (state.stage != Stage::kQueued) return false;
  state.stage = Stage::kClaimed;
  return true;
}

void ClaimableTask::await_worker() const {
  std::unique_lock lock(state_->mu);
  state_->done.wait(lock, [&] { return state_->stage == Stage::kDone; });
}

}  // namespace sor
