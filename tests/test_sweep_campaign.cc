// SweepCampaign: a fig09-shaped (checker frequency x workload) sweep
// writes byte-identical artifacts at any --jobs level; every cell and
// every workload's baseline is filled; flat sweeps index cells
// explicitly.
#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "runtime/parallel_runner.h"
#include "runtime/serialize.h"
#include "runtime/sweep_campaign.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace paradet::runtime {
namespace {

constexpr std::uint64_t kSeed = 0x5EE9F19;
constexpr std::uint64_t kBudget = 200'000;
const std::uint64_t kFreqsMhz[] = {250, 500, 1000};

std::vector<workloads::Workload> tiny_suite() {
  std::vector<workloads::Workload> suite;
  for (const char* name : {"randacc", "freqmine"}) {
    workloads::Workload workload;
    EXPECT_TRUE(workloads::make_workload(name, workloads::Scale{0.02},
                                         workload));
    suite.push_back(std::move(workload));
  }
  return suite;
}

/// The fig09 cell: a checked run at the point's checker frequency.
sim::RunResult freq_cell(std::size_t point, std::size_t,
                         const AssemblyCache::Image& image, std::uint64_t) {
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.config.checker.freq_mhz = kFreqsMhz[point];
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = kBudget;
  return sim::run_job(job, image);
}

SweepCampaign make_sweep() {
  SweepCampaign sweep(std::size(kFreqsMhz), tiny_suite(), kSeed);
  sweep.enable_baselines(SystemConfig::standard(), kBudget);
  return sweep;
}

TEST(SweepCampaign, ArtifactBytesIdenticalAcrossJobLevels) {
  const SweepCampaign sweep = make_sweep();
  EXPECT_EQ(to_json(sweep.run(ParallelRunner(1), freq_cell).artifact),
            to_json(sweep.run(ParallelRunner(8), freq_cell).artifact));
}

TEST(SweepCampaign, CellSlotsAndSlowdownsCoverTheGrid) {
  const SweepResult result = make_sweep().run(ParallelRunner(8), freq_cell);
  ASSERT_EQ(result.points, std::size(kFreqsMhz));
  ASSERT_EQ(result.workload_count, 2u);
  ASSERT_EQ(result.artifact.runs.size(), result.points * 2);
  for (std::size_t p = 0; p < result.points; ++p) {
    for (std::size_t w = 0; w < result.workload_count; ++w) {
      EXPECT_GT(result.cell(p, w).main_done_cycle, 0u);
      EXPECT_GE(result.slowdown(p, w), 1.0);
    }
  }
  // Every workload has its baseline.
  ASSERT_EQ(result.baselines.size(), result.workload_count);
  for (const sim::RunResult& baseline : result.baselines) {
    EXPECT_GT(baseline.main_done_cycle, 0u);
  }
}

TEST(SweepCampaign, FlatSweepNamesWorkloadPerCell) {
  // Heterogeneous list (the ablations shape): cells 0 and 2 share
  // workload 0, cell 1 uses workload 1; `point` is the cell index.
  std::vector<std::size_t> seen_points;
  std::vector<std::size_t> seen_workloads;
  std::mutex mutex;
  auto sweep = SweepCampaign::flat({0, 1, 0}, tiny_suite(), kSeed);
  EXPECT_EQ(sweep.tasks(), 3u);
  const SweepResult result = sweep.run(
      ParallelRunner(1), [&](std::size_t point, std::size_t workload,
                             const AssemblyCache::Image&, std::uint64_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen_points.push_back(point);
        seen_workloads.push_back(workload);
        return sim::RunResult{};
      });
  EXPECT_EQ(seen_points, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(seen_workloads, (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(result.artifact.runs.size(), 3u);
}

TEST(SweepCampaign, FlatSweepRejectsOutOfRangeWorkloadIndex) {
  EXPECT_THROW(SweepCampaign::flat({0, 2}, tiny_suite(), kSeed),
               std::invalid_argument);
}

TEST(PrintTransposed, RequiresOneColumnPerPoint) {
  const SweepResult result = make_sweep().run(ParallelRunner(8), freq_cell);
  TableSpec spec;  // no columns.
  EXPECT_THROW(print_transposed(result, spec,
                                [](std::size_t, std::size_t) { return 0.0; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace paradet::runtime
