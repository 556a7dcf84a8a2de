#include "runtime/campaign.h"

#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "runtime/serialize.h"

namespace paradet::runtime {

std::uint64_t derive_task_seed(std::uint64_t campaign_seed,
                               std::uint64_t task_index) {
  // Two SplitMix64 steps decorrelate adjacent indices; the golden-ratio
  // stride keeps (seed, index) pairs off each other's orbits.
  SplitMix64 mix(campaign_seed ^
                 (task_index + 1) * 0x9E3779B97F4A7C15ULL);
  mix.next();
  return mix.next();
}

void CampaignAggregate::absorb(const sim::RunResult& result) {
  ++runs;
  if (result.error_detected) ++errors_detected;
  instructions += result.instructions;
  segments += result.segments;
  main_cycles.add(static_cast<double>(result.main_done_cycle));
  delay_ns.merge(result.delay_ns);
  counters.merge(result.counters);
}

void CampaignAggregate::merge(const CampaignAggregate& other) {
  runs += other.runs;
  errors_detected += other.errors_detected;
  instructions += other.instructions;
  segments += other.segments;
  main_cycles.merge(other.main_cycles);
  delay_ns.merge(other.delay_ns);
  counters.merge(other.counters);
}

CampaignRunOptions CampaignRunOptions::from_runtime(
    const RuntimeOptions& runtime) {
  CampaignRunOptions options;
  options.shard = ShardSpec{runtime.shard_index, runtime.shard_count};
  options.out_path = runtime.out_path;
  options.checkpoint_path = runtime.checkpoint_path;
  return options;
}

CampaignArtifact Campaign::run_sharded(const ParallelRunner& runner,
                                       const CampaignRunOptions& options,
                                       const Task& task) const {
  const ShardSpec shard = options.shard;
  if (shard.count == 0 || shard.index >= shard.count) {
    throw std::invalid_argument("ShardSpec: need 0 <= index < count");
  }

  // This shard's slice of the task space, ascending.
  std::vector<std::uint64_t> owned;
  for (std::uint64_t i = shard.index; i < tasks_; i += shard.count) {
    owned.push_back(i);
  }

  std::vector<sim::RunResult> results(owned.size());
  std::vector<char> done(owned.size(), 0);

  // Resume: the checkpoint journal's records pre-fill this shard's
  // completed slots, and later completions append to the same file. A
  // checkpoint for a different campaign or slice, or a file that is not a
  // journal at all, is an operator error, never silently absorbed or
  // overwritten — load_checkpoint_state validates and throws.
  std::unique_ptr<JournalWriter> journal;
  if (!options.checkpoint_path.empty()) {
    const JournalHeader header{seed_, tasks_, options.fingerprint, shard};
    CampaignArtifact checkpoint;
    load_checkpoint_state(options.checkpoint_path, header, &checkpoint);
    for (TaskRecord& record : checkpoint.runs) {
      const std::size_t slot =
          static_cast<std::size_t>((record.index - shard.index) / shard.count);
      results[slot] = std::move(record.result);
      done[slot] = 1;
    }
    journal = std::make_unique<JournalWriter>(options.checkpoint_path, header);
  }

  std::vector<std::size_t> pending;
  for (std::size_t slot = 0; slot < owned.size(); ++slot) {
    if (!done[slot]) pending.push_back(slot);
  }

  // Each completion is one O(record) journal append; nothing is ever
  // rewritten, so total checkpoint cost over an n-task shard is n appends.
  std::mutex journal_mutex;
  runner.for_each(pending.size(), [&](std::size_t p) {
    const std::size_t slot = pending[p];
    results[slot] = task(static_cast<std::size_t>(owned[slot]),
                         task_seed(static_cast<std::size_t>(owned[slot])));
    if (journal == nullptr) return;
    // Frame the record outside the mutex — the JSON encode of a big
    // RunResult is the expensive part of an append, and this worker owns
    // results[slot].
    const std::string line =
        journal_record_line(owned[slot], results[slot]);
    const std::lock_guard<std::mutex> lock(journal_mutex);
    journal->append_line(line);
  });

  CampaignArtifact artifact;
  artifact.seed = seed_;
  artifact.tasks = tasks_;
  artifact.fingerprint = options.fingerprint;
  artifact.shard = shard;
  artifact.runs.reserve(owned.size());
  for (std::size_t slot = 0; slot < owned.size(); ++slot) {
    artifact.runs.push_back({owned[slot], std::move(results[slot])});
  }
  for (const TaskRecord& record : artifact.runs) {
    artifact.aggregate.absorb(record.result);
  }

  if (!options.out_path.empty()) {
    write_artifact_file(options.out_path, artifact);
  }
  return artifact;
}

}  // namespace paradet::runtime
