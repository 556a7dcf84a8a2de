// SweepCampaign: a fig09-shaped (checker frequency x workload) sweep
// sharded over {1,3} processes x {1,8} jobs merges byte-identical to the
// unsharded --out artifact; baselines are computed exactly for the
// workloads each shard touches; flat sweeps index cells explicitly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "runtime/campaign.h"
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The unsharded single-process artifact bytes: the ground truth every
/// sharded variant must reproduce.
const std::string& reference_bytes() {
  static const std::string* bytes = [] {
    const std::string path = testing::TempDir() + "/paradet_sweep_whole.json";
    CampaignRunOptions options;
    options.out_path = path;
    make_sweep().run(ParallelRunner(1), options, freq_cell);
    auto* text = new std::string(slurp(path));
    std::remove(path.c_str());
    return text;
  }();
  return *bytes;
}

TEST(SweepCampaign, ShardedOutArtifactsMergeByteIdenticalToUnsharded) {
  const SweepCampaign sweep = make_sweep();
  for (const std::uint64_t shard_count : {1u, 3u}) {
    for (const unsigned jobs : {1u, 8u}) {
      std::vector<CampaignArtifact> shards;
      for (std::uint64_t k = 0; k < shard_count; ++k) {
        CampaignRunOptions options;
        options.shard = ShardSpec{k, shard_count};
        options.out_path = testing::TempDir() + "/paradet_sweep_shard_" +
                           std::to_string(k) + ".json";
        sweep.run(ParallelRunner(jobs), options, freq_cell);
        shards.push_back(read_artifact_file(options.out_path));
        std::remove(options.out_path.c_str());
      }
      EXPECT_EQ(to_json(merge_artifacts(std::move(shards))),
                reference_bytes())
          << "shards=" << shard_count << " jobs=" << jobs;
    }
  }
}

TEST(SweepCampaign, CellSlotsAndSlowdownsCoverTheGrid) {
  const SweepResult result =
      make_sweep().run(ParallelRunner(8), CampaignRunOptions{}, freq_cell);
  ASSERT_EQ(result.points, std::size(kFreqsMhz));
  ASSERT_EQ(result.workload_count, 2u);
  for (std::size_t p = 0; p < result.points; ++p) {
    for (std::size_t w = 0; w < result.workload_count; ++w) {
      ASSERT_NE(result.cell(p, w), nullptr);
      EXPECT_GT(result.cell(p, w)->main_done_cycle, 0u);
      EXPECT_GE(result.slowdown(p, w), 1.0);
    }
  }
  // Whole campaign: every workload touched, every baseline computed.
  for (std::size_t w = 0; w < result.workload_count; ++w) {
    EXPECT_TRUE(result.workload_touched[w]);
    ASSERT_NE(result.baseline(w), nullptr);
    EXPECT_GT(result.baseline(w)->main_done_cycle, 0u);
  }
}

TEST(SweepCampaign, BaselinesOnlyForWorkloadsTheShardTouches) {
  // 3 points x 2 workloads = 6 cells; cell % 2 is the workload, so shard
  // 0/2 owns cells {0,2,4} — all of workload 0 and none of workload 1.
  CampaignRunOptions options;
  options.shard = ShardSpec{0, 2};
  const SweepResult result =
      make_sweep().run(ParallelRunner(4), options, freq_cell);

  EXPECT_TRUE(result.workload_touched[0]);
  EXPECT_FALSE(result.workload_touched[1]);
  EXPECT_NE(result.baseline(0), nullptr);
  EXPECT_EQ(result.baseline(1), nullptr);
  for (std::size_t p = 0; p < result.points; ++p) {
    EXPECT_NE(result.cell(p, 0), nullptr);
    EXPECT_EQ(result.cell(p, 1), nullptr);  // owned by shard 1/2.
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
      ParallelRunner(1), CampaignRunOptions{},
      [&](std::size_t point, std::size_t workload, const AssemblyCache::Image&,
          std::uint64_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen_points.push_back(point);
        seen_workloads.push_back(workload);
        return sim::RunResult{};
      });
  EXPECT_EQ(seen_points, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(seen_workloads, (std::vector<std::size_t>{0, 1, 0}));
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NE(result.cell_at(c), nullptr);
  }
}

TEST(SweepCampaign, FlatSweepRejectsOutOfRangeWorkloadIndex) {
  EXPECT_THROW(SweepCampaign::flat({0, 2}, tiny_suite(), kSeed),
               std::invalid_argument);
}

TEST(SweepCampaign, InvalidShardSpecIsRejected) {
  CampaignRunOptions options;
  options.shard = ShardSpec{2, 2};
  EXPECT_THROW(
      make_sweep().run(ParallelRunner(1), options, freq_cell),
      std::invalid_argument);
}

TEST(SweepCampaign, CheckpointResumeMatchesUninterruptedBytes) {
  // A sweep interrupted mid-campaign resumes from its checkpoint into the
  // reference bytes — the sweep layer inherits Campaign's whole story.
  const std::string path = testing::TempDir() + "/paradet_sweep_ckpt.json";
  std::remove(path.c_str());
  CampaignRunOptions options;
  options.checkpoint_path = path;
  options.out_path = testing::TempDir() + "/paradet_sweep_resumed.json";

  const SweepCampaign sweep = make_sweep();
  std::atomic<unsigned> launched{0};
  EXPECT_THROW(
      sweep.run(ParallelRunner(1), options,
                [&](std::size_t p, std::size_t w, const AssemblyCache::Image& image,
                    std::uint64_t seed) {
                  if (launched.fetch_add(1) >= 4) {
                    throw std::runtime_error("injected crash");
                  }
                  return freq_cell(p, w, image, seed);
                }),
      std::runtime_error);

  sweep.run(ParallelRunner(1), options, freq_cell);
  EXPECT_EQ(slurp(options.out_path), reference_bytes());
  std::remove(path.c_str());
  std::remove(options.out_path.c_str());
}

TEST(PrintTransposed, RequiresOneColumnPerPoint) {
  const SweepResult result =
      make_sweep().run(ParallelRunner(8), CampaignRunOptions{}, freq_cell);
  TableSpec spec;  // no columns.
  EXPECT_THROW(print_transposed(result, spec,
                                [](std::size_t, std::size_t) { return 0.0; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace paradet::runtime
