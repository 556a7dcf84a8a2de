#include "runtime/campaign.h"

#include <utility>

#include "common/rng.h"

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

CampaignArtifact Campaign::run(const ParallelRunner& runner,
                               const Task& task) const {
  std::vector<sim::RunResult> results(tasks_);
  runner.for_each(tasks_, [&](std::size_t index) {
    results[index] = task(index, task_seed(index));
  });

  CampaignArtifact artifact;
  artifact.seed = seed_;
  artifact.tasks = tasks_;
  artifact.runs.reserve(tasks_);
  for (std::size_t index = 0; index < tasks_; ++index) {
    artifact.runs.push_back({index, std::move(results[index])});
  }
  for (const TaskRecord& record : artifact.runs) {
    artifact.aggregate.absorb(record.result);
  }
  return artifact;
}

}  // namespace paradet::runtime
