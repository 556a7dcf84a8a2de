// Orchestrator: one command launches, babysits and merges a whole
// sharded campaign.
//
// PR 2/3 gave every campaign driver `--shard/--out/--checkpoint`, which
// makes an N-process sweep *possible* — but launching the N processes,
// noticing the one that died (or the one straggling on a loaded box),
// re-running it against its checkpoint, and folding the artifacts back
// together was still a manual shell exercise. The orchestrator owns that
// loop:
//
//   * Spawn. Shard k of N runs the driver command with
//     `--jobs=J --shard=k/N --out/--checkpoint` paths laid out under a
//     run directory, stdout+stderr captured to a per-shard log.
//   * Monitor + restart. A shard that exits nonzero (or is killed) is
//     relaunched — the identical command, so it resumes from its own
//     checkpoint journal and re-runs only unfinished tasks — up to a
//     bounded retry budget. Optionally, once most shards have finished, a
//     shard running longer than `straggler_factor ×` the median finished
//     wall time is killed and restarted the same way.
//   * Merge. When every shard's artifact is on disk the orchestrator
//     folds them through serialize.h's merge path into one file that is
//     byte-identical to the unsharded run's `--out` (the invariant CI
//     checks with cmp).
//
// orchestrate() is one blocking poll loop. The spawn/monitor *mechanism*
// lives behind runtime/shard_launcher.h — local fork/exec, or a scripted
// mock for tests — so this file owns only policy: argv construction,
// run-directory layout, retry budgets, the straggler decision. The policy
// pieces are pure functions exposed for unit tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace paradet::runtime {

class ShardLauncher;

struct OrchestratorOptions {
  std::uint64_t shards = 2;
  unsigned jobs_per_shard = 1;

  /// Every per-shard file lives under here (created if absent):
  /// shard_K.json (artifact), shard_K.ckpt.json (checkpoint journal),
  /// shard_K.log (stdout+stderr), and the merged output.
  std::string run_dir;

  /// Merged-artifact path; empty means `<run_dir>/merged.json`.
  std::string merged_out;

  /// Relaunches allowed per shard beyond its first launch, shared by
  /// crash, straggler and injected-kill restarts.
  unsigned retries = 2;

  /// 0 disables straggler handling. Otherwise, once at least half the
  /// shards (and at least one) have finished successfully, a shard whose
  /// current run has lasted more than `straggler_factor × median finished
  /// wall time` is killed and restarted from its checkpoint — at most
  /// once per shard: a restarted shard that is still slow is doing
  /// genuinely long work, and repeated kills would only burn its retry
  /// budget re-running it.
  double straggler_factor = 0.0;

  /// Fault-injection drill (CI uses it): SIGKILL this shard index once,
  /// as soon as its checkpoint shows progress (a journaled record) — then
  /// let the normal restart path resume it. A
  /// shard so fast it finishes before the kill lands is relaunched once
  /// anyway, so the resume path always runs. The target shard's launch
  /// budget is extended by one, so the drill never eats into its
  /// real-failure retries. -1 disables.
  std::int64_t inject_kill = -1;
};

/// Final state of one shard process.
struct ShardStatus {
  std::uint64_t index = 0;
  unsigned launches = 0;  ///< 1 = never restarted.
  bool succeeded = false;
  int last_exit_code = -1;     ///< exit code of the final run, if it exited.
  int last_signal = 0;         ///< signal of the final run, if killed.
  bool straggler_killed = false;
  bool inject_kill_fired = false;
  double wall_seconds = 0.0;  ///< of the successful run.
  std::string out_path;
  std::string checkpoint_path;
  std::string log_path;
};

struct OrchestratorResult {
  bool merged_ok = false;      ///< every shard succeeded and the merge ran.
  std::string merged_path;
  unsigned restarts = 0;       ///< total relaunches across shards.
  std::vector<ShardStatus> shards;
};

/// The exact argv shard `index` runs: the driver command plus the
/// orchestrator-owned `--jobs/--shard/--out/--checkpoint` flags. Any
/// caller-supplied `--shard/--out/--checkpoint` is dropped first (the
/// orchestrator owns those paths), and the appended `--jobs` wins over a
/// caller's by coming last. Pure; exposed for tests.
std::vector<std::string> shard_argv(
    const std::vector<std::string>& driver_command,
    const OrchestratorOptions& options, std::uint64_t index);

/// Per-shard paths under the run directory. Pure; exposed for tests.
std::string shard_out_path(const OrchestratorOptions& options,
                           std::uint64_t index);
std::string shard_checkpoint_path(const OrchestratorOptions& options,
                                  std::uint64_t index);
std::string shard_log_path(const OrchestratorOptions& options,
                           std::uint64_t index);

/// Straggler policy: should a shard that has been running for
/// `running_seconds` be killed, given the wall times of the shards that
/// already finished (out of `total_shards`)? Pure; exposed for tests.
bool is_straggler(double running_seconds,
                  const std::vector<double>& finished_seconds,
                  std::uint64_t total_shards, double straggler_factor);

/// True once the checkpoint journal at `checkpoint_path` shows any
/// progress to resume from: at least one record line beyond its header.
bool checkpoint_has_progress(const std::string& checkpoint_path);

/// Runs the whole orchestration: spawn, monitor/restart, merge. Throws
/// on setup errors (unrunnable driver, uncreatable run directory) and
/// rethrows launcher failures, after killing and reaping every shard
/// already started; shard-level failures are reported in the result, with
/// `merged_ok` false when any shard exhausted its retries. Progress is
/// narrated to stderr. Shards run wherever `launcher` puts them — the
/// overload without one uses a LocalShardLauncher (fork/exec on this
/// host).
OrchestratorResult orchestrate(const std::vector<std::string>& driver_command,
                               const OrchestratorOptions& options,
                               ShardLauncher& launcher);
OrchestratorResult orchestrate(const std::vector<std::string>& driver_command,
                               const OrchestratorOptions& options);

}  // namespace paradet::runtime
