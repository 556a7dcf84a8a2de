// Bounded ticket pipeline for concurrent checker replay.
//
// The segment pipeline (sim/segment_pipeline) splits each sealed segment's
// processing into a thread-safe *work* half (functional replay, pure over
// an immutable snapshot) and an order-dependent *absorb* half (timing walk
// over shared icache state, detection bookkeeping). CheckerPool runs the
// two halves on a worker pool plus one absorber thread:
//
//   producer ──publish(t)──▶ [workers: claim tickets via atomic CAS,
//                             run work(t, worker) in any order]
//                                   │ per-ticket done word
//                                   ▼
//                            [absorber: absorb(0), absorb(1), … strictly
//                             in ticket order]
//
// Tickets are dense 0..n-1 ordinals. Capacity bounds the number of
// published-but-not-absorbed tickets, giving backpressure: wait_slot()
// blocks the producer until slot `ticket % capacity` is free again.
//
// The handoff protocol is deliberately lock-light: every pipeline counter
// (published/claimed/absorbed) is an atomic, each slot's completion word
// lives on its own cache line, and threads waiting for progress spin a
// bounded number of iterations before parking on a condition variable.
// Wakers only take the condvar mutex when a waiter has actually parked
// (a Dekker-style parked counter with seq_cst stores on the watched
// state), so the steady-state cost of publishing or absorbing a ticket is
// a handful of uncontended atomic operations — not a mutex/notify round
// trip per segment, which dominated the handoff at fine replay
// granularities. Fine granularity is further amortised one level up:
// sim::SegmentPipeline coalesces several sealed segments into one ticket
// (see SegmentPipeline::kTicketTargetInsts).
//
// Exceptions from work/absorb are captured once and rethrown from the
// producer-side calls (publish/wait_slot/drain); the pool then refuses
// further tickets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace paradet::runtime {

class CheckerPool {
 public:
  /// work(ticket, worker): thread-safe half, runs on any of `threads`
  /// workers; `worker` in [0, threads) selects per-thread scratch state.
  /// absorb(ticket): order-dependent half, called from the absorber thread
  /// strictly in ticket order.
  using WorkFn = std::function<void(std::uint64_t ticket, unsigned worker)>;
  using AbsorbFn = std::function<void(std::uint64_t ticket)>;

  /// Spawns `threads` workers (>= 1) plus one absorber. `capacity` bounds
  /// in-flight tickets (>= 1).
  CheckerPool(unsigned threads, std::size_t capacity, WorkFn work,
              AbsorbFn absorb);
  ~CheckerPool();

  CheckerPool(const CheckerPool&) = delete;
  CheckerPool& operator=(const CheckerPool&) = delete;

  /// Blocks until slot `ticket % capacity` is free (i.e. ticket - capacity
  /// has been absorbed). Call before writing the ticket's input into the
  /// shared slot. Rethrows any captured pipeline failure.
  void wait_slot(std::uint64_t ticket);

  /// Makes `ticket` visible to workers. Tickets must be published densely
  /// in order: 0, 1, 2, … Rethrows any captured pipeline failure.
  void publish(std::uint64_t ticket);

  /// Blocks until absorb(ticket) has returned. Rethrows failures.
  void wait_absorbed(std::uint64_t ticket);

  /// Blocks until every published ticket has been absorbed. Rethrows
  /// failures. The pool stays usable afterwards.
  void drain();

  unsigned threads() const { return threads_; }
  std::size_t capacity() const { return capacity_; }

  /// Thread budget policy: how many checker worker threads a single run
  /// should spawn so that `host_jobs` concurrent runs (campaign --jobs)
  /// plus their absorbers cannot oversubscribe the host. Returns
  /// min(requested, max(0, hardware_concurrency / host_jobs - 1));
  /// 0 means "run inline" (no pool). `requested` == 0 always maps to 0.
  static unsigned bounded(unsigned requested, unsigned host_jobs);

 private:
  /// One ticket's completion word, alone on its cache line so a worker
  /// finishing slot k never invalidates the line the absorber is polling
  /// for slot k+1. Holds ticket+1 when the work half is done (0 = empty);
  /// storing the ticket rather than a flag makes slot reuse across ring
  /// laps self-checking.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> done{0};
  };

  /// A park site: waiters spin on their predicate first, then register in
  /// `parked` (under the mutex) and block on the condvar. Wakers skip the
  /// mutex entirely while `parked` reads 0 — the common case when the
  /// pipeline is flowing — turning per-ticket notification into one
  /// relaxed load. The watched counters use seq_cst stores, so the
  /// store-then-check-parked / register-then-check-state pair can never
  /// both miss (Dekker).
  struct ParkLot {
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<int> parked{0};
  };

  template <typename Pred>
  void park_until(ParkLot& lot, Pred pred);
  static void wake(ParkLot& lot);
  static void wake_all(ParkLot& lot);

  void worker_loop(unsigned worker);
  void absorber_loop();
  void fail(std::exception_ptr error);
  void rethrow_if_failed();

  const unsigned threads_;
  const std::size_t capacity_;
  WorkFn work_;
  AbsorbFn absorb_;

  std::atomic<std::uint64_t> published_{0};  // tickets visible to workers
  std::atomic<std::uint64_t> claimed_{0};    // next ticket a worker takes
  std::atomic<std::uint64_t> absorbed_{0};   // tickets absorbed, in order
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::vector<Slot> slots_;

  ParkLot worker_lot_;    // workers wait for published_ > claimed_
  ParkLot absorber_lot_;  // absorber waits for the next slot's done word
  ParkLot producer_lot_;  // producer waits for absorbed_ progress

  std::mutex error_mutex_;
  std::exception_ptr error_;

  std::vector<std::thread> workers_;
  std::thread absorber_;
};

}  // namespace paradet::runtime
