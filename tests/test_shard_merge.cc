// The distributed-campaign equivalence suite: a 64-run fault campaign
// split into 1, 3 and 8 shards — each shard executed at --jobs 1 and 8 —
// merges back (through the same library path tools/merge_results.cpp
// drives) into an artifact byte-identical to the unsharded run's; a
// checkpoint taken mid-campaign, with all in-memory state dropped,
// resumes to byte-identical final output without re-running finished
// tasks. Also covers the --shard/--out/--checkpoint CLI parsing these
// flows hang off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "runtime/campaign.h"
#include "runtime/parallel_runner.h"
#include "runtime/serialize.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace paradet::runtime {
namespace {

constexpr std::size_t kTasks = 64;
constexpr std::uint64_t kSeed = 0x5EEDFULL;

/// Shared, immutable campaign fixture: the checked job, the kernel image
/// and its clean run (fault placement needs the clean uop count).
struct Fixture {
  sim::SimJob job;
  isa::Assembled assembled;
  sim::RunResult clean;
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* fx = new Fixture;
    fx->job.config = SystemConfig::standard();
    fx->job.mode = sim::SimMode::kChecked;
    fx->job.max_instructions = 200'000;
    const auto workload =
        workloads::make_freqmine(workloads::Scale{.factor = 0.02});
    fx->assembled = workloads::assemble_or_die(workload);
    fx->clean = sim::run_job(fx->job, fx->assembled);
    return fx;
  }();
  return *f;
}

/// The campaign task: one random transient strike, derived purely from the
/// task seed — the exact task any shard of the same campaign would run.
sim::RunResult fault_task(std::size_t, std::uint64_t task_seed) {
  const Fixture& fx = fixture();
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
      100 + rng.next_below(fx.clean.uops > 200 ? fx.clean.uops - 200 : 1);
  spec.reg = 5 + static_cast<unsigned>(rng.next_below(25));
  spec.bit = static_cast<unsigned>(rng.next_below(64));
  faults.add(spec);
  sim::SimJob job = fx.job;
  job.faults = &faults;
  return sim::run_job(job, fx.assembled);
}

/// The unsharded single-process artifact, serialized once: the byte-level
/// ground truth every sharded/checkpointed variant must reproduce.
const std::string& reference_json() {
  static const std::string* text = [] {
    const Campaign campaign(kTasks, kSeed);
    CampaignRunOptions options;
    const CampaignArtifact artifact =
        campaign.run_sharded(ParallelRunner(1), options, fault_task);
    return new std::string(to_json(artifact));
  }();
  return *text;
}

TEST(ShardMerge, MergedShardsAreByteIdenticalToUnshardedRun) {
  const Campaign campaign(kTasks, kSeed);
  for (const std::uint64_t shard_count : {1u, 3u, 8u}) {
    for (const unsigned jobs : {1u, 8u}) {
      const ParallelRunner runner(jobs);
      std::vector<CampaignArtifact> shards;
      for (std::uint64_t k = 0; k < shard_count; ++k) {
        CampaignRunOptions options;
        options.shard = ShardSpec{k, shard_count};
        shards.push_back(campaign.run_sharded(runner, options, fault_task));
        EXPECT_EQ(shards.back().runs.size(),
                  (kTasks - k + shard_count - 1) / shard_count);
      }
      const CampaignArtifact merged = merge_artifacts(std::move(shards));
      EXPECT_EQ(to_json(merged), reference_json())
          << "shards=" << shard_count << " jobs=" << jobs;
    }
  }
}

TEST(ShardMerge, ShardArtifactFilesSurviveTheDiskTrip) {
  // The cross-process story writes shards to disk; prove the file layer
  // preserves merge equivalence, not just in-memory artifacts.
  const Campaign campaign(kTasks, kSeed);
  const ParallelRunner runner(8);
  std::vector<CampaignArtifact> shards;
  for (std::uint64_t k = 0; k < 3; ++k) {
    CampaignRunOptions options;
    options.shard = ShardSpec{k, 3};
    options.out_path = testing::TempDir() + "/paradet_shard_" +
                       std::to_string(k) + ".json";
    campaign.run_sharded(runner, options, fault_task);
    shards.push_back(read_artifact_file(options.out_path));
    std::remove(options.out_path.c_str());
  }
  EXPECT_EQ(to_json(merge_artifacts(std::move(shards))), reference_json());
}

TEST(ShardMerge, CheckpointResumeIsByteIdenticalToUninterrupted) {
  const std::string path = testing::TempDir() + "/paradet_checkpoint.json";
  std::remove(path.c_str());

  const Campaign campaign(kTasks, kSeed);
  const ParallelRunner serial(1);
  CampaignRunOptions options;
  options.checkpoint_path = path;

  // Phase 1: the campaign dies after 20 completed tasks.
  constexpr unsigned kCrashAfter = 20;
  std::atomic<unsigned> launched{0};
  EXPECT_THROW(
      campaign.run_sharded(serial, options,
                           [&](std::size_t i, std::uint64_t seed) {
                             if (launched.fetch_add(1) >= kCrashAfter) {
                               throw std::runtime_error("injected crash");
                             }
                             return fault_task(i, seed);
                           }),
      std::runtime_error);

  // The checkpoint on disk holds the whole partial campaign: every
  // completion was appended to the journal as it finished, so the resume
  // state covers all 20 with the partial aggregate re-absorbed.
  CampaignArtifact checkpoint;
  ASSERT_TRUE(load_checkpoint_state(
      path, JournalHeader{kSeed, kTasks, 0, ShardSpec{}}, &checkpoint));
  EXPECT_EQ(checkpoint.runs.size(), kCrashAfter);
  EXPECT_EQ(checkpoint.aggregate.runs, kCrashAfter);
  EXPECT_EQ(checkpoint.seed, kSeed);

  // Phase 2: all in-memory state is gone (fresh run_sharded call); the
  // resumed campaign must only run the remaining tasks...
  std::atomic<unsigned> resumed{0};
  const CampaignArtifact artifact = campaign.run_sharded(
      serial, options, [&](std::size_t i, std::uint64_t seed) {
        ++resumed;
        return fault_task(i, seed);
      });
  EXPECT_EQ(resumed.load(), kTasks - kCrashAfter);

  // ...and still produce the uninterrupted campaign's bytes.
  EXPECT_EQ(to_json(artifact), reference_json());

  // A third run resumes from the completed checkpoint: nothing re-runs.
  std::atomic<unsigned> rerun{0};
  const CampaignArtifact again = campaign.run_sharded(
      serial, options, [&](std::size_t i, std::uint64_t seed) {
        ++rerun;
        return fault_task(i, seed);
      });
  EXPECT_EQ(rerun.load(), 0u);
  EXPECT_EQ(to_json(again), reference_json());
  std::remove(path.c_str());
}

TEST(ShardMerge, FingerprintMismatchRejectsCheckpointAndMerge) {
  // Same seed and task count, different driver configuration (e.g. another
  // --scale): the fingerprint is the only thing telling them apart.
  const std::string path =
      testing::TempDir() + "/paradet_fingerprint_ckpt.json";
  std::remove(path.c_str());
  const auto trivial = [](std::size_t, std::uint64_t) {
    return sim::RunResult{};
  };
  const Campaign campaign(8, kSeed);
  CampaignRunOptions options;
  options.fingerprint = 0xAAA;
  options.checkpoint_path = path;
  campaign.run_sharded(ParallelRunner(2), options, trivial);

  options.fingerprint = 0xBBB;
  EXPECT_THROW(campaign.run_sharded(ParallelRunner(2), options, trivial),
               std::runtime_error);
  std::remove(path.c_str());

  CampaignRunOptions left, right;
  left.shard = ShardSpec{0, 2};
  left.fingerprint = 0xAAA;
  right.shard = ShardSpec{1, 2};
  right.fingerprint = 0xBBB;
  EXPECT_THROW(
      merge_artifacts({campaign.run_sharded(ParallelRunner(2), left, trivial),
                       campaign.run_sharded(ParallelRunner(2), right,
                                            trivial)}),
      std::runtime_error);
}

TEST(ShardMerge, ForeignCheckpointIsRejected) {
  const std::string path = testing::TempDir() + "/paradet_foreign_ckpt.json";
  std::remove(path.c_str());

  // Leave a valid checkpoint for a *different* campaign (other seed).
  const Campaign other(kTasks, kSeed + 1);
  CampaignRunOptions options;
  options.checkpoint_path = path;
  other.run_sharded(ParallelRunner(8), options,
                    [](std::size_t, std::uint64_t) { return sim::RunResult{}; });

  const Campaign campaign(kTasks, kSeed);
  EXPECT_THROW(campaign.run_sharded(ParallelRunner(1), options, fault_task),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(ShardMerge, MergeRejectsInconsistentShards) {
  const Campaign campaign(8, kSeed);
  const ParallelRunner runner(4);
  const auto run_shard = [&](std::uint64_t k, std::uint64_t n) {
    CampaignRunOptions options;
    options.shard = ShardSpec{k, n};
    return campaign.run_sharded(runner, options, [](std::size_t,
                                                    std::uint64_t) {
      return sim::RunResult{};
    });
  };

  // Overlap: the same shard twice.
  EXPECT_THROW(merge_artifacts({run_shard(0, 2), run_shard(0, 2)}),
               std::runtime_error);
  // Gap: one of two shards missing.
  EXPECT_THROW(merge_artifacts({run_shard(0, 2)}), std::runtime_error);
  // Nothing at all.
  EXPECT_THROW(merge_artifacts({}), std::runtime_error);
  // Mixed campaigns (different seed ⇒ different campaign).
  const Campaign other(8, kSeed + 1);
  CampaignRunOptions options;
  options.shard = ShardSpec{1, 2};
  auto foreign = other.run_sharded(
      runner, options,
      [](std::size_t, std::uint64_t) { return sim::RunResult{}; });
  EXPECT_THROW(merge_artifacts({run_shard(0, 2), std::move(foreign)}),
               std::runtime_error);
  // The happy path of the same helper does merge.
  EXPECT_EQ(merge_artifacts({run_shard(0, 2), run_shard(1, 2)}).runs.size(),
            8u);
}

TEST(ShardMerge, InvalidShardSpecIsRejectedAtRunTime) {
  const Campaign campaign(8, kSeed);
  CampaignRunOptions options;
  options.shard = ShardSpec{3, 3};  // index out of range.
  EXPECT_THROW(campaign.run_sharded(ParallelRunner(1), options,
                                    [](std::size_t, std::uint64_t) {
                                      return sim::RunResult{};
                                    }),
               std::invalid_argument);
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

TEST(RuntimeOptionsFlags, ParsesShardOutAndCheckpoint) {
  const RuntimeOptions options =
      parse_args({"--jobs=4", "--shard=2/5", "--out=s2.json",
                  "--checkpoint=ckpt.json", "positional", "--unrelated=x"});
  EXPECT_EQ(options.jobs, 4u);
  EXPECT_EQ(options.shard_index, 2u);
  EXPECT_EQ(options.shard_count, 5u);
  EXPECT_EQ(options.out_path, "s2.json");
  EXPECT_EQ(options.checkpoint_path, "ckpt.json");
}

TEST(RuntimeOptionsFlags, RuntimeFlagClaimsOnlyTheParsedForms) {
  // Drivers exit 2 on a `-` argument runtime_flag does not claim, so it
  // must claim exactly what from_args parses.
  EXPECT_TRUE(runtime_flag("--jobs=2"));
  EXPECT_TRUE(runtime_flag("-j2"));
  EXPECT_TRUE(runtime_flag("--checker-threads=4"));
  EXPECT_TRUE(runtime_flag("--shard=0/2"));
  EXPECT_TRUE(runtime_flag("--out=a.json"));
  EXPECT_TRUE(runtime_flag("--checkpoint=ck.json"));
  EXPECT_FALSE(runtime_flag("--checkpoint"));
  EXPECT_FALSE(runtime_flag("--checkpoints=ck.json"));
  EXPECT_FALSE(runtime_flag("--bogus=1"));
}

TEST(RuntimeOptionsFlags, DefaultsToTheWholeCampaign) {
  const RuntimeOptions options = parse_args({});
  EXPECT_EQ(options.shard_index, 0u);
  EXPECT_EQ(options.shard_count, 1u);
  EXPECT_TRUE(options.out_path.empty());
  EXPECT_TRUE(options.checkpoint_path.empty());
  const ShardSpec shard{options.shard_index, options.shard_count};
  EXPECT_TRUE(shard.whole());
}

TEST(RuntimeOptionsFlagsDeathTest, MalformedShardSpecsExit) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(parse_args({"--shard=3/3"}), testing::ExitedWithCode(2),
              "invalid argument");
  EXPECT_EXIT(parse_args({"--shard=1"}), testing::ExitedWithCode(2),
              "invalid argument");
  EXPECT_EXIT(parse_args({"--shard=a/b"}), testing::ExitedWithCode(2),
              "invalid argument");
  EXPECT_EXIT(parse_args({"--shard=1/0"}), testing::ExitedWithCode(2),
              "invalid argument");
  // Negative values must not wrap through strtoull into huge shards.
  EXPECT_EXIT(parse_args({"--shard=0/-1"}), testing::ExitedWithCode(2),
              "invalid argument");
  // Only the '=' forms exist; the space form must fail loudly rather than
  // leak "0/2" into a driver's positional arguments.
  EXPECT_EXIT(parse_args({"--shard", "0/2"}), testing::ExitedWithCode(2),
              "invalid argument");
  EXPECT_EXIT(parse_args({"--out"}), testing::ExitedWithCode(2),
              "invalid argument");
  // An empty path (an unset shell variable) must not silently drop the
  // artifact or the checkpoint journal.
  EXPECT_EXIT(parse_args({"--out="}), testing::ExitedWithCode(2),
              "invalid argument");
  EXPECT_EXIT(parse_args({"--checkpoint="}), testing::ExitedWithCode(2),
              "invalid argument");
  // A trailing --jobs with its value forgotten must not silently mean
  // "all cores".
  EXPECT_EXIT(parse_args({"--jobs"}), testing::ExitedWithCode(2),
              "invalid argument");
  EXPECT_EXIT(parse_args({"--jobs=-1"}), testing::ExitedWithCode(2),
              "invalid argument");
}

TEST(RuntimeOptionsFlagsDeathTest, NonCampaignDriversRejectCampaignFlags) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A driver that never calls run_sharded must refuse the flags rather
  // than silently run the whole campaign and write no artifact.
  EXPECT_EXIT(parse_args({"--shard=0/2"}, /*campaign_flags=*/false),
              testing::ExitedWithCode(2), "not supported by this driver");
  EXPECT_EXIT(parse_args({"--out=x.json"}, /*campaign_flags=*/false),
              testing::ExitedWithCode(2), "not supported by this driver");
  EXPECT_EXIT(parse_args({"--checkpoint=ck.json"}, /*campaign_flags=*/false),
              testing::ExitedWithCode(2), "not supported by this driver");
  // --jobs stays available everywhere.
  EXPECT_EQ(parse_args({"--jobs=3"}, /*campaign_flags=*/false).jobs, 3u);
}

}  // namespace
}  // namespace paradet::runtime
