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
// Campaigns also scale past one process: a ShardSpec restricts execution
// to task indices `i % count == index` while keeping per-task seeds (and
// therefore per-task results) identical to the unsharded campaign's, and
// run_sharded() can persist its runs as a versioned JSON artifact
// (runtime/serialize.h) that tools/merge_results folds back — in task
// order — into the bit-identical single-machine aggregate. A checkpoint
// is one append-only journal file (serialize.h) taking one O(record)
// append per completed task: an interrupted campaign restarted with the
// same --checkpoint path resumes without re-running finished tasks and
// still produces byte-identical final output.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
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
  void merge(const CampaignAggregate& other);
};

/// A 1-of-N partition of a campaign's task space: shard K of N owns the
/// task indices with `task % count == index`. The default 0/1 spec owns
/// the whole campaign.
struct ShardSpec {
  std::uint64_t index = 0;
  std::uint64_t count = 1;

  bool owns(std::uint64_t task) const { return task % count == index; }
  bool whole() const { return count == 1; }
  bool operator==(const ShardSpec&) const = default;
};

/// One completed task: its global index plus the run's full result.
struct TaskRecord {
  std::uint64_t index = 0;
  sim::RunResult result;
};

/// The persistent/mergeable form of a campaign execution: which slice of
/// which campaign ran, every completed run (ascending task index), and the
/// aggregate absorbed over those runs in task index order. Serialized by
/// runtime/serialize.h; shard outputs and merge_results outputs are both
/// this one shape.
struct CampaignArtifact {
  std::uint64_t seed = 0;
  std::uint64_t tasks = 0;  ///< whole-campaign task count, not this slice's.
  /// Caller-supplied hash of the driver configuration that gives task
  /// indices their meaning (workload scale, suite filter, budget, ...).
  /// (seed, tasks) alone cannot tell two differently-configured runs of
  /// the same driver apart; resuming or merging across configurations
  /// would silently mix incompatible results.
  std::uint64_t fingerprint = 0;
  ShardSpec shard;
  std::vector<TaskRecord> runs;
  CampaignAggregate aggregate;
};

/// Execution options for Campaign::run_sharded.
struct CampaignRunOptions {
  ShardSpec shard;

  /// Configuration fingerprint stored in artifacts and validated against
  /// checkpoints (see CampaignArtifact::fingerprint). Leave 0 only when
  /// the driver's configuration is fully determined by (seed, tasks).
  std::uint64_t fingerprint = 0;

  /// Write the completed artifact here (for tools/merge_results).
  std::string out_path;

  /// Checkpoint path: the append-only journal of completed runs (one
  /// checksummed record per completion, O(record) each). Loaded (if
  /// present) before running to skip finished tasks; a finished
  /// checkpoint re-runs nothing. A file here that is not this slice's
  /// journal — an artifact, say — makes run_sharded throw and is left
  /// untouched.
  std::string checkpoint_path;

  /// Lifts the host-side CLI flags (--shard/--out/--checkpoint/...) into
  /// execution options.
  static CampaignRunOptions from_runtime(const RuntimeOptions& runtime);
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

  /// Executes task(index, task_seed(index)) for every index this shard
  /// owns, resuming from / writing the checkpoint and artifact files named
  /// in `options`. `task` must be safe to invoke concurrently from
  /// multiple threads (each call owns its simulator). The returned
  /// artifact holds every owned run, and its aggregate is absorbed in
  /// task-index order after the pool joins, so it is bit-identical at
  /// every jobs level — and merging all N shards' artifacts reproduces
  /// the unsharded artifact byte for byte.
  CampaignArtifact run_sharded(const ParallelRunner& runner,
                               const CampaignRunOptions& options,
                               const Task& task) const;

 private:
  std::size_t tasks_;
  std::uint64_t seed_;
};

}  // namespace paradet::runtime
