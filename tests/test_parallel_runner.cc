// Tests for the runtime subsystem: worker-pool mechanics, order-independent
// per-task seeding, the headline determinism contract — a parallel
// fault-injection campaign merges to bit-identical statistics at any
// --jobs level — and the --jobs/--out CLI parsing campaign drivers share.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "runtime/campaign.h"
#include "runtime/parallel_runner.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace paradet::runtime {
namespace {

TEST(ParallelRunner, ResolveJobsDefaultsToHardware) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(5), 5u);
  EXPECT_EQ(ParallelRunner(3).jobs(), 3u);
}

TEST(ParallelRunner, MapCoversEveryIndexInOrder) {
  const ParallelRunner runner(8);
  const auto squares =
      runner.map(1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 1000u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ParallelRunner, ForEachRunsEveryTaskExactlyOnce) {
  const ParallelRunner runner(8);
  std::vector<std::atomic<int>> hits(512);
  runner.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelRunner, EmptyBatchIsANoOp) {
  const ParallelRunner runner(8);
  runner.for_each(0, [](std::size_t) { FAIL() << "task ran"; });
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
}

TEST(ParallelRunner, TaskExceptionPropagatesToCaller) {
  for (const unsigned jobs : {1u, 8u}) {
    const ParallelRunner runner(jobs);
    EXPECT_THROW(runner.for_each(64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
                 std::runtime_error);
  }
}

TEST(TaskSeeds, DerivationIsOrderIndependent) {
  constexpr std::uint64_t kSeed = 0xDEADBEEF;
  constexpr std::uint64_t kTasks = 1000;
  std::vector<std::uint64_t> forward, reverse(kTasks);
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    forward.push_back(derive_task_seed(kSeed, i));
  }
  for (std::uint64_t i = kTasks; i-- > 0;) {
    reverse[i] = derive_task_seed(kSeed, i);
  }
  EXPECT_EQ(forward, reverse);
}

TEST(TaskSeeds, DistinctAcrossIndicesAndCampaigns) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t campaign = 0; campaign < 4; ++campaign) {
    for (std::uint64_t i = 0; i < 512; ++i) {
      seen.insert(derive_task_seed(campaign * 0x1234567ULL + 1, i));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 512u);
}

// Independence across tasks: the derivation must behave like a random
// function of the index — no collisions over a large range, and no
// structure between adjacent indices.

TEST(TaskSeeds, NoCollisionsAcrossAHundredThousandIndices) {
  constexpr std::uint64_t kIndices = 100'000;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(kIndices);
  for (std::uint64_t i = 0; i < kIndices; ++i) {
    seeds.push_back(derive_task_seed(/*campaign_seed=*/0xD157A5CED, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(TaskSeeds, AdjacentIndicesAvalancheEveryOutputBit) {
  // Per-bit avalanche: across many adjacent-index pairs, each of the 64
  // output bits must flip roughly half the time, and the overall flip
  // count must be near 32. A weak mixer (e.g. seed = campaign ^ index)
  // fails both instantly; the bounds below are >10 sigma wide for a true
  // coin flip over this sample, and the derivation is deterministic, so
  // this cannot flake.
  constexpr std::uint64_t kPairs = 4096;
  std::array<std::uint64_t, 64> flips{};
  std::uint64_t total_flips = 0;
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    const std::uint64_t diff = derive_task_seed(0x5EEDF, i) ^
                               derive_task_seed(0x5EEDF, i + 1);
    total_flips += static_cast<std::uint64_t>(std::popcount(diff));
    for (unsigned bit = 0; bit < 64; ++bit) {
      flips[bit] += (diff >> bit) & 1;
    }
  }
  const double mean_flips =
      static_cast<double>(total_flips) / static_cast<double>(kPairs);
  EXPECT_GT(mean_flips, 30.0);
  EXPECT_LT(mean_flips, 34.0);
  for (unsigned bit = 0; bit < 64; ++bit) {
    const double rate =
        static_cast<double>(flips[bit]) / static_cast<double>(kPairs);
    EXPECT_GT(rate, 0.40) << "output bit " << bit << " barely flips";
    EXPECT_LT(rate, 0.60) << "output bit " << bit << " flips too often";
  }
}

/// The acceptance campaign: 64 random transient strikes on a small kernel,
/// every run kept. Every task derives its fault spec purely from its task
/// seed.
CampaignArtifact run_fault_campaign(unsigned jobs) {
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = 200'000;
  const auto workload =
      workloads::make_freqmine(workloads::Scale{.factor = 0.02});
  const auto assembled = workloads::assemble_or_die(workload);
  const auto clean = sim::run_job(job, assembled);

  const Campaign campaign(/*tasks=*/64, /*seed=*/0x5EEDFULL);
  const ParallelRunner runner(jobs);
  return campaign.run(
      runner, [&](std::size_t, std::uint64_t task_seed) {
        SplitMix64 rng(task_seed);
        const core::FaultSite site_pool[] = {
            core::FaultSite::kMainArchReg,
            core::FaultSite::kMainStoreValue,
            core::FaultSite::kMainLoadValuePostLfu,
        };
        core::FaultInjector faults;
        core::FaultSpec spec;
        spec.site = site_pool[rng.next_below(std::size(site_pool))];
        spec.at_seq =
            100 + rng.next_below(clean.uops > 200 ? clean.uops - 200 : 1);
        spec.reg = 5 + static_cast<unsigned>(rng.next_below(25));
        spec.bit = static_cast<unsigned>(rng.next_below(64));
        faults.add(spec);
        sim::SimJob struck = job;
        struck.faults = &faults;
        return sim::run_job(struck, assembled);
      });
}

TEST(Campaign, MergedStatsBitIdenticalAcrossJobLevels) {
  const CampaignArtifact serial = run_fault_campaign(1);
  const CampaignArtifact parallel = run_fault_campaign(8);

  ASSERT_EQ(serial.runs.size(), 64u);
  ASSERT_EQ(parallel.runs.size(), 64u);

  // Per-task results land in the same slots regardless of scheduling.
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    const sim::RunResult& a = serial.runs[i].result;
    const sim::RunResult& b = parallel.runs[i].result;
    EXPECT_EQ(serial.runs[i].index, i);
    EXPECT_EQ(parallel.runs[i].index, i);
    EXPECT_EQ(a.main_done_cycle, b.main_done_cycle);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.error_detected, b.error_detected);
    EXPECT_EQ(a.final_state.pc, b.final_state.pc);
  }

  // Merged aggregates are bit-identical: exact equality on the floating
  // point sums, not near-equality.
  const CampaignAggregate& a = serial.aggregate;
  const CampaignAggregate& b = parallel.aggregate;
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.errors_detected, b.errors_detected);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.main_cycles.count(), b.main_cycles.count());
  EXPECT_EQ(a.main_cycles.sum(), b.main_cycles.sum());
  EXPECT_EQ(a.main_cycles.min(), b.main_cycles.min());
  EXPECT_EQ(a.main_cycles.max(), b.main_cycles.max());
  EXPECT_EQ(a.counters.sorted(), b.counters.sorted());

  ASSERT_EQ(a.delay_ns.bins(), b.delay_ns.bins());
  EXPECT_EQ(a.delay_ns.bin_width(), b.delay_ns.bin_width());
  EXPECT_EQ(a.delay_ns.overflow(), b.delay_ns.overflow());
  for (std::size_t bin = 0; bin < a.delay_ns.bins(); ++bin) {
    EXPECT_EQ(a.delay_ns.bin_count(bin), b.delay_ns.bin_count(bin));
  }
  EXPECT_EQ(a.delay_ns.summary().sum(), b.delay_ns.summary().sum());

  // The campaign actually exercised the detection hardware.
  EXPECT_GT(a.errors_detected, 0u);
  EXPECT_GT(a.delay_ns.summary().count(), 0u);
}

// --- CLI flag parsing ------------------------------------------------------

RuntimeOptions parse_args(std::vector<std::string> args,
                          bool campaign_flags = true) {
  args.insert(args.begin(), "test-binary");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return RuntimeOptions::from_args(static_cast<int>(argv.size()),
                                   argv.data(), campaign_flags);
}

TEST(RuntimeOptionsFlags, ParsesJobsAndOut) {
  const RuntimeOptions options =
      parse_args({"--jobs=4", "--out=s2.json", "positional", "--unrelated=x"});
  EXPECT_EQ(options.jobs, 4u);
  EXPECT_EQ(options.out_path, "s2.json");
}

TEST(RuntimeOptionsFlags, RuntimeFlagClaimsOnlyTheParsedForms) {
  // Drivers exit 2 on a `-` argument runtime_flag does not claim, so it
  // must claim exactly what from_args parses.
  EXPECT_TRUE(runtime_flag("--jobs=2"));
  EXPECT_TRUE(runtime_flag("-j2"));
  EXPECT_TRUE(runtime_flag("--checker-threads=4"));
  EXPECT_TRUE(runtime_flag("--out=a.json"));
  EXPECT_FALSE(runtime_flag("--shard=0/2"));
  EXPECT_FALSE(runtime_flag("--checkpoint=ck.json"));
  EXPECT_FALSE(runtime_flag("--bogus=1"));
}

TEST(RuntimeOptionsFlags, DefaultsWriteNoArtifact) {
  EXPECT_TRUE(parse_args({}).out_path.empty());
}

TEST(RuntimeOptionsFlagsDeathTest, MalformedFlagsExit) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Only the '=' forms exist; the space form must fail loudly rather than
  // leak the path into a driver's positional arguments.
  EXPECT_EXIT(parse_args({"--out"}), testing::ExitedWithCode(2),
              "invalid argument");
  // An empty path (an unset shell variable) must not silently drop the
  // artifact.
  EXPECT_EXIT(parse_args({"--out="}), testing::ExitedWithCode(2),
              "invalid argument");
  // A trailing --jobs with its value forgotten must not silently mean
  // "all cores".
  EXPECT_EXIT(parse_args({"--jobs"}), testing::ExitedWithCode(2),
              "invalid argument");
  EXPECT_EXIT(parse_args({"--jobs=-1"}), testing::ExitedWithCode(2),
              "invalid argument");
}

TEST(RuntimeOptionsFlagsDeathTest, NonCampaignDriversRejectOut) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A driver that runs no campaign must refuse --out rather than silently
  // write no artifact.
  EXPECT_EXIT(parse_args({"--out=x.json"}, /*campaign_flags=*/false),
              testing::ExitedWithCode(2), "not supported by this driver");
  // --jobs stays available everywhere.
  EXPECT_EQ(parse_args({"--jobs=3"}, /*campaign_flags=*/false).jobs, 3u);
}

}  // namespace
}  // namespace paradet::runtime
