// Campaign: a batch of independent simulation runs executed on a
// ParallelRunner with deterministic per-task RNG seeding and merged
// statistics.
//
// Fault-injection campaigns, design-space sweeps and figure reproductions
// all share one shape: N independent simulations, each needing its own
// random stream, whose results are folded into campaign-level statistics.
// Campaign fixes the two places where naive parallelisation loses
// reproducibility:
//
//   * Seeding. Each task's seed is a pure function of (campaign seed,
//     task index) — never of a shared RNG advanced in scheduling order —
//     so task 17 sees the same random stream whether it runs first, last,
//     on one worker or on sixteen.
//   * Aggregation. Results are collected by task index and merged front
//     to back after the pool joins, so the merged Histogram / Counters /
//     Summary values are bit-identical across worker counts.
//
// A campaign always runs its whole task space in one process. Drivers
// write the returned CampaignArtifact to their --out path with
// runtime::write_artifact_file (runtime/serialize.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "runtime/parallel_runner.h"
#include "sim/checked_system.h"

namespace paradet::runtime {

/// Deterministic, order-independent per-task seed: a SplitMix64 hash of
/// the campaign seed and the task index. Distinct indices yield
/// statistically independent streams (SplitMix64 is a full-period mixer).
std::uint64_t derive_task_seed(std::uint64_t campaign_seed,
                               std::uint64_t task_index);

/// Merged statistics over a set of RunResults. Absorb order matters for
/// bit-identical floating-point sums; Campaign always absorbs in task
/// order.
struct CampaignAggregate {
  std::uint64_t runs = 0;
  std::uint64_t errors_detected = 0;
  std::uint64_t instructions = 0;
  std::uint64_t segments = 0;
  Summary main_cycles;
  Histogram delay_ns;
  Counters counters;

  void absorb(const sim::RunResult& result);
};

/// One completed task: its index plus the run's full result.
struct TaskRecord {
  std::uint64_t index = 0;
  sim::RunResult result;
};

/// The result of a campaign: which campaign ran, every run (ascending
/// task index), and the aggregate absorbed over those runs in task index
/// order. Serialized by runtime/serialize.h.
struct CampaignArtifact {
  std::uint64_t seed = 0;
  std::uint64_t tasks = 0;
  std::vector<TaskRecord> runs;
  CampaignAggregate aggregate;
};

/// A batch of `tasks` independent runs, seeded from `seed`.
class Campaign {
 public:
  using Task = std::function<sim::RunResult(std::size_t index,
                                            std::uint64_t task_seed)>;

  Campaign(std::size_t tasks, std::uint64_t seed)
      : tasks_(tasks), seed_(seed) {}

  std::size_t tasks() const { return tasks_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t task_seed(std::size_t index) const {
    return derive_task_seed(seed_, index);
  }

  /// Executes task(index, task_seed(index)) for every index. `task` must
  /// be safe to invoke concurrently from multiple threads (each call owns
  /// its simulator). The returned artifact holds every run, and its
  /// aggregate is absorbed in task-index order after the pool joins, so it
  /// is bit-identical at every jobs level.
  CampaignArtifact run(const ParallelRunner& runner, const Task& task) const;

 private:
  std::size_t tasks_;
  std::uint64_t seed_;
};

}  // namespace paradet::runtime
