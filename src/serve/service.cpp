#include "serve/service.hpp"

#include <utility>

#include "util/check.hpp"

namespace sor::serve {

std::shared_ptr<const RouteSnapshot> RouteService::snapshot() const {
  const std::lock_guard<std::mutex> lock(swap_mu_);
  return current_;
}

RouteService::Answer RouteService::lookup(Vertex s, Vertex t) const {
  // Thread-local guard cache: the shared_ptr keeping the snapshot this
  // thread last answered from alive. The fast path is one acquire load
  // plus a pointer compare; the mutex is only taken when the published
  // table changed since this thread's previous lookup. No ABA hazard:
  // while the cached guard is held, its snapshot cannot be freed, so a
  // matching raw pointer IS the guarded object, not a reused address.
  struct GuardCache {
    const RouteService* service = nullptr;
    std::shared_ptr<const RouteSnapshot> guard;
  };
  thread_local GuardCache cache;
  const RouteSnapshot* raw = current_raw_.load(std::memory_order_acquire);
  if (cache.service != this || cache.guard.get() != raw) {
    const std::lock_guard<std::mutex> lock(swap_mu_);
    cache.guard = current_;
    cache.service = this;
  }

  Answer answer;
  answer.snapshot = cache.guard;
  lookups_.fetch_add(1, std::memory_order_relaxed);
  if (answer.snapshot != nullptr) {
    answer.result = answer.snapshot->lookup(s, t);
  }
  if (!answer.result.found) misses_.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

void RouteService::publish(std::shared_ptr<const RouteSnapshot> snap) {
  SOR_CHECK(snap != nullptr);
  {
    const std::lock_guard<std::mutex> lock(swap_mu_);
    current_ = std::move(snap);
    current_raw_.store(current_.get(), std::memory_order_release);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

void RouteService::enqueue_update(const DemandUpdate& update) {
  SOR_CHECK_MSG(update.src != update.dst && update.amount >= 0,
                "demand update wants src != dst and amount >= 0");
  {
    const std::lock_guard<std::mutex> lock(ingest_mu_);
    pending_.push_back(update);
  }
  updates_enqueued_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<DemandUpdate> RouteService::drain_updates() {
  std::vector<DemandUpdate> batch;
  {
    const std::lock_guard<std::mutex> lock(ingest_mu_);
    batch.swap(pending_);
  }
  updates_drained_.fetch_add(batch.size(), std::memory_order_relaxed);
  return batch;
}

}  // namespace sor::serve
