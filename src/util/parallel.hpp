#pragma once

// parallel_for: block-partitioned parallel loop over [0, n).
//
// The body receives the loop index. Iterations are divided into
// contiguous chunks, one ClaimableTask per chunk beyond the first, which
// the calling thread runs. It then runs every chunk no worker has claimed
// and waits only on chunks that workers have started, so parallel_for
// composes with code already running on a pool thread, or on a pool whose
// workers are all busy, without deadlocking.
//
// Exceptions thrown by the body are propagated (the first one observed).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace sor {

/// Runs body(i) for i in [0, n) across the pool. Deterministic work
/// partition (chunking depends only on n and thread count), so per-index
/// seeding yields reproducible results.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr);

/// The pool parallel_for/parallel_reduce use when called with
/// pool == nullptr: the ScopedDefaultPool override if one is active,
/// otherwise ThreadPool::global().
ThreadPool& default_pool();

/// Temporarily replaces the default pool with one of `num_threads`
/// workers — the hook the cross-thread-count determinism suite uses to run
/// the same computation at pool sizes 1, 2, 8 in one process. Not
/// reentrancy-safe across threads: install/remove from a single thread
/// with no concurrent parallel sections outside the scope.
class ScopedDefaultPool {
 public:
  explicit ScopedDefaultPool(std::size_t num_threads);
  ~ScopedDefaultPool();

  ScopedDefaultPool(const ScopedDefaultPool&) = delete;
  ScopedDefaultPool& operator=(const ScopedDefaultPool&) = delete;

 private:
  ThreadPool pool_;
  ThreadPool* saved_;
};

/// Parallel map-reduce: folds body(i) over i in [0, n) into `init`.
///
/// Deterministic by construction: iterations are split into a FIXED number
/// of chunks that depends only on n (never on the pool size), each chunk
/// is folded sequentially in index order, and the per-chunk partials are
/// folded in chunk-index order on the calling thread. The same (n, init,
/// body, combine) therefore produces bit-identical results at every
/// thread count — including for non-associative-in-floating-point
/// combines like double addition. `combine` must be associative over the
/// values it actually sees (it is no longer required to be commutative);
/// `init` is folded in exactly once, first.
template <typename T, typename Body, typename Combine>
T parallel_reduce(std::size_t n, T init, Body&& body, Combine&& combine,
                  ThreadPool* pool = nullptr) {
  if (n == 0) return init;
  // Fixed chunking: more chunks than any realistic pool keeps all workers
  // busy, while the count (and thus every chunk boundary) is a function of
  // n alone.
  constexpr std::size_t kReduceChunks = 64;
  const std::size_t chunks = std::min(n, kReduceChunks);
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  std::vector<std::optional<T>> partials(chunks);
  parallel_for(
      chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * base + std::min(c, extra);
        const std::size_t end = begin + base + (c < extra ? 1 : 0);
        T local = body(begin);
        for (std::size_t i = begin + 1; i < end; ++i) {
          local = combine(std::move(local), body(i));
        }
        partials[c].emplace(std::move(local));
      },
      pool);
  T acc = std::move(init);
  for (std::optional<T>& p : partials) {
    acc = combine(std::move(acc), std::move(*p));
  }
  return acc;
}

}  // namespace sor
