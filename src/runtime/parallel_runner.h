// Host-side worker pool for embarrassingly parallel simulation batches.
//
// The paper's thesis is that checking work parallelises across many small
// cores; the experiments that demonstrate it (fault campaigns, config
// sweeps, figure reproductions) are themselves batches of hundreds of
// *independent* simulation runs. ParallelRunner executes such a batch
// across a std::thread pool with work stealing over a shared atomic task
// index: every worker repeatedly claims the next unclaimed index, so load
// imbalance between short and long simulations self-corrects without any
// static partitioning.
//
// Determinism contract: results land in a vector slot chosen by task
// index, never by completion order, and any post-hoc aggregation that
// walks that vector front to back (see runtime/campaign.h) is therefore
// bit-identical for every worker count, --jobs=1 included.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace paradet::runtime {

/// Resolves a requested job count: 0 means one worker per hardware thread
/// (at least 1 when the hardware concurrency is unknown).
unsigned resolve_jobs(unsigned requested);

class ParallelRunner {
 public:
  /// `jobs` = 0 uses one worker per hardware thread.
  explicit ParallelRunner(unsigned jobs = 0) : jobs_(resolve_jobs(jobs)) {}

  unsigned jobs() const { return jobs_; }

  /// Invokes fn(index) for every index in [0, count). Blocks until all
  /// tasks finish. The first exception thrown by a task is rethrown here
  /// after the pool joins; remaining unclaimed tasks are abandoned.
  template <typename Fn>
  void for_each(std::size_t count, Fn&& fn) const {
    if (count == 0) return;
    if (jobs_ == 1) {
      // Inline fast path: no threads, identical task order to the pool's
      // index sequence.
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&] {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };

    const unsigned spawned =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
    std::vector<std::thread> pool;
    pool.reserve(spawned);
    for (unsigned t = 0; t < spawned; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Maps fn over [0, count), returning results in task-index order.
  /// T must be default-constructible (slots are pre-allocated so workers
  /// never contend on the container).
  template <typename Fn,
            typename T = std::decay_t<std::invoke_result_t<Fn, std::size_t>>>
  std::vector<T> map(std::size_t count, Fn&& fn) const {
    std::vector<T> results(count);
    for_each(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  unsigned jobs_;
};

}  // namespace paradet::runtime
