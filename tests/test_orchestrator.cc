// The orchestrator's policy pieces — shard argv/path construction, the
// straggler decision and checkpoint-progress detection — as pure unit
// tests, plus the whole spawn/retry/straggler/inject-kill loop run
// against a MockShardLauncher (no subprocesses, scripted exits) so
// restart budgets, kill ordering and the kill-on-unwind guard are
// asserted deterministically. The
// real fork/exec machinery still runs end-to-end in the
// `shard_cli_smoke` CTest (scripts/shard_smoke_test.sh drives
// campaign_orchestrator with an injected shard kill and cmp-checks the
// merged artifact) and in the CI orchestrator-smoke job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/campaign.h"
#include "runtime/orchestrator.h"
#include "runtime/serialize.h"
#include "runtime/shard_launcher.h"

namespace paradet::runtime {
namespace {

OrchestratorOptions options_under(const std::string& run_dir) {
  OrchestratorOptions options;
  options.shards = 3;
  options.jobs_per_shard = 4;
  options.run_dir = run_dir;
  return options;
}

TEST(Orchestrator, ShardArgvAppendsTheCampaignFlagsLast) {
  const OrchestratorOptions options = options_under("/tmp/run");
  const std::vector<std::string> argv =
      shard_argv({"./bench_fig09", "--scale=0.05", "--benchmark=randacc"},
                 options, 1);
  const std::vector<std::string> expected = {
      "./bench_fig09",          "--scale=0.05",
      "--benchmark=randacc",    "--jobs=4",
      "--shard=1/3",            "--out=/tmp/run/shard_1.json",
      "--checkpoint=/tmp/run/shard_1.ckpt.json",
  };
  EXPECT_EQ(argv, expected);
}

TEST(Orchestrator, ShardArgvDropsCallerCampaignFlags) {
  // The orchestrator owns sharding/artifact/checkpoint paths: a caller's
  // own spellings are dropped, not passed through beside the appended
  // ones.
  const OrchestratorOptions options = options_under("/tmp/run");
  const std::vector<std::string> argv = shard_argv(
      {"./bench_fig09", "--scale=0.05", "--shard=0/9", "--out=mine.json",
       "--checkpoint=mine.ckpt"},
      options, 0);
  const std::vector<std::string> expected = {
      "./bench_fig09", "--scale=0.05",
      "--jobs=4",      "--shard=0/3",
      "--out=/tmp/run/shard_0.json",
      "--checkpoint=/tmp/run/shard_0.ckpt.json",
  };
  EXPECT_EQ(argv, expected);
}

TEST(Orchestrator, RunDirectoryLayoutIsPerShard) {
  const OrchestratorOptions options = options_under("dir");
  EXPECT_EQ(shard_out_path(options, 0), "dir/shard_0.json");
  EXPECT_EQ(shard_checkpoint_path(options, 2), "dir/shard_2.ckpt.json");
  EXPECT_EQ(shard_log_path(options, 1), "dir/shard_1.log");
}

TEST(Orchestrator, StragglerPolicyWaitsForAQuorum) {
  // Disabled entirely at factor 0.
  EXPECT_FALSE(is_straggler(100.0, {1.0, 1.0}, 3, 0.0));
  // No finished shards: nothing to compare against.
  EXPECT_FALSE(is_straggler(100.0, {}, 3, 3.0));
  // 1 of 3 finished is under the half-quorum.
  EXPECT_FALSE(is_straggler(100.0, {1.0}, 3, 3.0));
  // Quorum reached: 3x the median flags, under it does not.
  EXPECT_TRUE(is_straggler(3.5, {1.0, 1.1}, 3, 3.0));
  EXPECT_FALSE(is_straggler(2.5, {1.0, 1.1}, 3, 3.0));
  // Near-instant medians don't brand everything a straggler: the
  // threshold has an absolute floor.
  EXPECT_FALSE(is_straggler(0.05, {0.001, 0.001}, 2, 2.0));
}

TEST(Orchestrator, CheckpointProgressSeesAJournaledRecord) {
  const std::string ckpt =
      testing::TempDir() + "/paradet_orch_progress.json";
  std::remove(ckpt.c_str());

  // Nothing on disk: no progress.
  EXPECT_FALSE(checkpoint_has_progress(ckpt));

  // A header-only journal is an empty checkpoint: still no progress.
  const JournalHeader header{1, 8, 0, ShardSpec{}};
  JournalWriter writer(ckpt, header);
  EXPECT_FALSE(checkpoint_has_progress(ckpt));

  // One journaled record is resumable progress.
  writer.append({0, sim::RunResult{}});
  EXPECT_TRUE(checkpoint_has_progress(ckpt));
  std::remove(ckpt.c_str());
}

TEST(Orchestrator, SetupErrorsThrowBeforeAnythingSpawns) {
  OrchestratorOptions options = options_under(testing::TempDir() + "/orch");
  EXPECT_THROW(orchestrate({}, options), std::invalid_argument);

  options.shards = 0;
  EXPECT_THROW(orchestrate({"/bin/true"}, options), std::invalid_argument);

  options = options_under("");
  EXPECT_THROW(orchestrate({"/bin/true"}, options), std::invalid_argument);

  options = options_under(testing::TempDir() + "/orch");
  options.inject_kill = 3;  // shards are 0..2.
  EXPECT_THROW(orchestrate({"/bin/true"}, options), std::invalid_argument);

  options.inject_kill = -1;
  EXPECT_THROW(orchestrate({"/no/such/driver"}, options), std::runtime_error);
}

// --- The monitor loop against the mock launcher -----------------------------

constexpr std::uint64_t kMockTasks = 6;

/// The artifact shard `index` of `count` would write: every owned task
/// with a default RunResult, aggregate absorbed in task order — enough
/// for merge_artifacts to verify coverage and fold for real.
CampaignArtifact mock_shard_artifact(std::uint64_t index,
                                     std::uint64_t count) {
  CampaignArtifact artifact;
  artifact.seed = 42;
  artifact.tasks = kMockTasks;
  artifact.fingerprint = 0xF00D;
  artifact.shard = ShardSpec{index, count};
  for (std::uint64_t task = 0; task < artifact.tasks; ++task) {
    if (!artifact.shard.owns(task)) continue;
    artifact.runs.push_back({task, sim::RunResult{}});
    artifact.aggregate.absorb(artifact.runs.back().result);
  }
  return artifact;
}

/// Options over a fresh run dir.
OrchestratorOptions mock_options(const std::string& name,
                                 std::uint64_t shards) {
  OrchestratorOptions options;
  options.shards = shards;
  options.run_dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(options.run_dir);
  return options;
}

/// Hook that materializes the succeeding shard's artifact, so the
/// orchestrator's merge path runs against real files.
void write_artifacts_on_success(MockShardLauncher& mock,
                                const OrchestratorOptions& options) {
  mock.on_success([&options](std::uint64_t index,
                             const std::vector<std::string>&) {
    write_artifact_file(shard_out_path(options, index),
                        mock_shard_artifact(index, options.shards));
  });
}

TEST(Orchestrator, MockRunMergesShardArtifactsForReal) {
  OrchestratorOptions options = mock_options("orch_mock_merge", 3);
  MockShardLauncher mock;
  write_artifacts_on_success(mock, options);

  const OrchestratorResult result = orchestrate({"driver"}, options, mock);
  EXPECT_TRUE(result.merged_ok);
  EXPECT_EQ(result.restarts, 0u);

  const CampaignArtifact merged = read_artifact_file(result.merged_path);
  EXPECT_TRUE(merged.shard.whole());
  EXPECT_EQ(merged.runs.size(), kMockTasks);
  EXPECT_EQ(merged.aggregate.runs, kMockTasks);
}

TEST(Orchestrator, RetryBudgetExhaustionGivesUpAndReportsTheShard) {
  OrchestratorOptions options = mock_options("orch_mock_retry", 2);
  options.retries = 2;
  MockShardLauncher mock;
  write_artifacts_on_success(mock, options);
  // Shard 1 fails every attempt; its budget is 1 + retries launches.
  mock.script(1, {{MockOutcome::Kind::kFail, 3, 0, 0}});

  const OrchestratorResult result = orchestrate({"driver"}, options, mock);
  EXPECT_FALSE(result.merged_ok);
  EXPECT_EQ(mock.launches(0), 1u);
  EXPECT_EQ(mock.launches(1), 1u + options.retries);
  EXPECT_EQ(result.restarts, options.retries);
  EXPECT_TRUE(result.shards[0].succeeded);
  EXPECT_FALSE(result.shards[1].succeeded);
  EXPECT_EQ(result.shards[1].last_exit_code, 3);
  EXPECT_EQ(result.shards[1].launches, 1u + options.retries);
  // Giving up must not leave a merged artifact behind.
  EXPECT_FALSE(std::filesystem::exists(result.merged_path));
}

TEST(Orchestrator, FailedShardRecoversWithinItsRetryBudget) {
  OrchestratorOptions options = mock_options("orch_mock_recover", 2);
  options.retries = 2;
  MockShardLauncher mock;
  write_artifacts_on_success(mock, options);
  // Crash (signal), then a clean resume — one retry consumed.
  mock.script(0, {{MockOutcome::Kind::kFail, -1, 9, 0},
                  {MockOutcome::Kind::kSucceed}});

  const OrchestratorResult result = orchestrate({"driver"}, options, mock);
  EXPECT_TRUE(result.merged_ok);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_EQ(mock.launches(0), 2u);
  EXPECT_TRUE(result.shards[0].succeeded);
}

TEST(Orchestrator, StragglerIsKilledAfterQuorumThenRestarted) {
  OrchestratorOptions options = mock_options("orch_mock_straggler", 3);
  options.straggler_factor = 2.0;
  MockShardLauncher mock;
  write_artifacts_on_success(mock, options);
  // Shards 0 and 1 finish on their first poll; shard 2 hangs until the
  // straggler police kill it (the threshold floor is 0.1s of wall time),
  // then succeeds on its checkpoint restart.
  mock.script(2, {{MockOutcome::Kind::kHang},
                  {MockOutcome::Kind::kSucceed}});

  const OrchestratorResult result = orchestrate({"driver"}, options, mock);
  EXPECT_TRUE(result.merged_ok);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_TRUE(result.shards[2].straggler_killed);
  EXPECT_TRUE(result.shards[2].succeeded);
  EXPECT_EQ(mock.launches(2), 2u);

  // Ordering: the kill decision waited for the finished-shard quorum,
  // and the relaunch came only after the killed run's exit surfaced.
  const std::vector<std::string>& events = mock.events();
  const auto at = [&events](const std::string& event) {
    const auto it = std::find(events.begin(), events.end(), event);
    EXPECT_NE(it, events.end()) << "missing event: " << event;
    return it - events.begin();
  };
  EXPECT_LT(at("exit 0 clean"), at("kill 2"));
  EXPECT_LT(at("exit 1 clean"), at("kill 2"));
  EXPECT_LT(at("kill 2"), at("exit 2 failed"));
  const auto relaunch = std::find(events.begin() + at("exit 2 failed"),
                                  events.end(), "launch 2");
  ASSERT_NE(relaunch, events.end());
  EXPECT_LT(std::find(events.begin(), events.end(), "kill 2"), relaunch);
}

TEST(Orchestrator, InjectKillDrillDoesNotEatTheRetryBudget) {
  OrchestratorOptions options = mock_options("orch_mock_drill", 2);
  options.retries = 0;  // the drill's relaunch must still be allowed.
  options.inject_kill = 0;
  MockShardLauncher mock;
  write_artifacts_on_success(mock, options);
  mock.set_checkpoint_progress(true);
  // The target hangs so the kill always lands, then resumes cleanly.
  mock.script(0, {{MockOutcome::Kind::kHang},
                  {MockOutcome::Kind::kSucceed}});

  const OrchestratorResult result = orchestrate({"driver"}, options, mock);
  EXPECT_TRUE(result.merged_ok);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_TRUE(result.shards[0].inject_kill_fired);
  EXPECT_TRUE(result.shards[0].succeeded);
  EXPECT_EQ(mock.launches(0), 2u);
}

TEST(Orchestrator, InjectKillWaitsForCheckpointProgress) {
  OrchestratorOptions options = mock_options("orch_mock_drill_wait", 2);
  options.inject_kill = 0;
  MockShardLauncher mock;
  write_artifacts_on_success(mock, options);
  // No checkpoint progress ever: the kill must not fire; the target
  // finishes cleanly and is relaunched once anyway so the resume path
  // still runs (it takes a few polls, long enough to be observed).
  mock.set_checkpoint_progress(false);
  mock.script(0, {{MockOutcome::Kind::kSucceed, 0, 0, 3},
                  {MockOutcome::Kind::kSucceed}});

  const OrchestratorResult result = orchestrate({"driver"}, options, mock);
  EXPECT_TRUE(result.merged_ok);
  EXPECT_TRUE(result.shards[0].inject_kill_fired);
  EXPECT_EQ(mock.launches(0), 2u);
  const std::vector<std::string>& events = mock.events();
  EXPECT_EQ(std::count(events.begin(), events.end(), "kill 0"), 0);
}

/// A mock whose Nth launch fails the way a real fork() failure does.
class FailingLaunchMock : public MockShardLauncher {
 public:
  explicit FailingLaunchMock(unsigned failing_launch)
      : failing_launch_(failing_launch) {}

  std::uint64_t launch(const std::vector<std::string>& argv,
                       const std::string& log_path) override {
    if (++launches_ == failing_launch_) {
      throw std::runtime_error("fork failed: Resource temporarily unavailable");
    }
    return MockShardLauncher::launch(argv, log_path);
  }

 private:
  unsigned failing_launch_;
  unsigned launches_ = 0;
};

TEST(Orchestrator, LaunchFailureAtStartupKillsTheShardsAlreadyStarted) {
  OrchestratorOptions options = mock_options("orch_mock_launch_fail", 3);
  FailingLaunchMock mock(3);
  // Shards 0 and 1 would run forever; shard 2 never starts.
  mock.script(0, {{MockOutcome::Kind::kHang}});
  mock.script(1, {{MockOutcome::Kind::kHang}});

  EXPECT_THROW(orchestrate({"driver"}, options, mock), std::runtime_error);
  const std::vector<std::string>& events = mock.events();
  EXPECT_EQ(std::count(events.begin(), events.end(), "kill 0"), 1);
  EXPECT_EQ(std::count(events.begin(), events.end(), "kill 1"), 1);
  EXPECT_EQ(mock.launches(2), 0u);
}

TEST(Orchestrator, ThrowMidLoopKillsTheShardsStillRunning) {
  OrchestratorOptions options = mock_options("orch_mock_hook_fail", 3);
  MockShardLauncher mock;
  mock.script(0, {{MockOutcome::Kind::kHang}});
  mock.script(1, {{MockOutcome::Kind::kHang}});
  // Shard 2 succeeds on its first poll, and writing its artifact throws.
  mock.on_success([](std::uint64_t index, const std::vector<std::string>&) {
    throw std::runtime_error("artifact write failed for shard " +
                             std::to_string(index));
  });

  EXPECT_THROW(orchestrate({"driver"}, options, mock), std::runtime_error);
  const std::vector<std::string>& events = mock.events();
  EXPECT_EQ(std::count(events.begin(), events.end(), "kill 0"), 1);
  EXPECT_EQ(std::count(events.begin(), events.end(), "kill 1"), 1);
}

}  // namespace
}  // namespace paradet::runtime
