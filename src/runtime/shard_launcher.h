// ShardLauncher: where a shard subprocess actually runs.
//
// orchestrate() (runtime/orchestrator.h) owns the *policy* of a sharded
// campaign — argv construction, run-directory layout, retry budgets,
// straggler kills, merging. This interface owns the *mechanism*: start
// this argv with its output appended to that log file, tell me when it
// exits, kill it. It is the seam a test substitutes a fake through:
//
//   * LocalShardLauncher — fork/exec/waitpid on this host; what
//     campaign_orchestrator runs.
//   * MockShardLauncher — no processes at all: scripted exits, failures
//     and hangs, so the whole spawn/retry/straggler/inject-kill loop is
//     unit-testable in milliseconds (tests/test_orchestrator.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace paradet::runtime {

/// Exit state of one launched shard attempt.
struct ShardExit {
  bool exited = false;  ///< false = still running.
  int exit_code = -1;   ///< valid when exited and signal == 0.
  int signal = 0;       ///< nonzero when the run was killed by a signal.

  bool clean() const { return exited && signal == 0 && exit_code == 0; }
};

class ShardLauncher {
 public:
  virtual ~ShardLauncher() = default;

  /// Starts `argv` with stdout+stderr appended to `log_path` (one log per
  /// shard, appended across relaunches). Returns an opaque handle for
  /// poll/kill/reap. Throws on launcher-level failure (fork/resource
  /// exhaustion); an unrunnable command is not a throw — it surfaces
  /// through poll() as exit 127, exactly like a driver that crashes.
  virtual std::uint64_t launch(const std::vector<std::string>& argv,
                               const std::string& log_path) = 0;

  /// Non-blocking liveness check. Safe to call after the exit was
  /// reported (returns the same ShardExit again).
  virtual ShardExit poll(std::uint64_t handle) = 0;

  /// Hard-kill (SIGKILL or equivalent); poll() still reports the exit.
  /// A no-op once the run has already exited. Must not throw: it runs
  /// while orchestrate() unwinds.
  virtual void kill(std::uint64_t handle) = 0;

  /// Blocks until the handle's run has exited. Used on unwind: whoever
  /// launched shards must never leave them running behind an exception.
  /// Must not throw, like kill().
  virtual void reap(std::uint64_t handle) = 0;

  /// True once the checkpoint at `path` shows resumable progress. The
  /// default is the filesystem probe (orchestrator.h
  /// checkpoint_has_progress); the mock scripts it.
  virtual bool checkpoint_progress(const std::string& path);
};

// --- Local fork/exec ---------------------------------------------------------

/// The PR 4 spawn machinery behind the interface: fork, redirect
/// stdout+stderr to the log, execvp; poll is waitpid(WNOHANG). An ECHILD
/// (the child vanished with unknowable status) reports as a non-clean
/// exit, so the caller's retry path re-covers it from the checkpoint.
class LocalShardLauncher : public ShardLauncher {
 public:
  std::uint64_t launch(const std::vector<std::string>& argv,
                       const std::string& log_path) override;
  ShardExit poll(std::uint64_t handle) override;
  void kill(std::uint64_t handle) override;
  void reap(std::uint64_t handle) override;

 private:
  struct Proc {
    int pid = -1;
    ShardExit exit;
  };
  std::uint64_t next_handle_ = 1;
  std::map<std::uint64_t, Proc> procs_;
};

// --- Scripted mock -----------------------------------------------------------

/// One scripted run attempt for a mocked shard.
struct MockOutcome {
  enum class Kind {
    kSucceed,  ///< exits 0 after `polls` polls; fires the success hook.
    kFail,     ///< exits with `exit_code`/`signal` after `polls` polls.
    kHang,     ///< never exits on its own; kill() turns it into SIGKILL.
  };
  Kind kind = Kind::kSucceed;
  int exit_code = 1;   ///< for kFail with signal == 0.
  int signal = 0;      ///< for kFail: report death by this signal.
  unsigned polls = 0;  ///< poll() calls before the outcome resolves.
};

/// No subprocesses: launches consume scripted outcomes per shard index
/// (parsed from the argv's --shard=K/N; the last outcome repeats when a
/// shard is relaunched past its script). Every transition is appended to
/// an event log ("launch 0", "exit 0 clean", "kill 2", ...) so tests can
/// assert ordering, and a success hook lets tests materialize real shard
/// artifacts so the merge path runs for real.
class MockShardLauncher : public ShardLauncher {
 public:
  /// Successive launches of shard `index` consume successive outcomes.
  void script(std::uint64_t index, std::vector<MockOutcome> outcomes);

  /// Invoked (with the shard index and the run's full argv) when a
  /// scripted run succeeds, before poll() reports the clean exit — the
  /// place to write the shard's artifact file at its --out path.
  void on_success(
      std::function<void(std::uint64_t, const std::vector<std::string>&)>
          hook);

  /// Scripted result of checkpoint_progress() (default true, so
  /// inject-kill drills fire on the first poll).
  void set_checkpoint_progress(bool value) { checkpoint_progress_ = value; }

  const std::vector<std::string>& events() const { return events_; }
  unsigned launches(std::uint64_t index) const;

  std::uint64_t launch(const std::vector<std::string>& argv,
                       const std::string& log_path) override;
  ShardExit poll(std::uint64_t handle) override;
  void kill(std::uint64_t handle) override;
  void reap(std::uint64_t handle) override;
  bool checkpoint_progress(const std::string& path) override;

 private:
  struct Run {
    std::uint64_t shard = 0;
    std::vector<std::string> argv;
    MockOutcome outcome;
    unsigned polls_left = 0;
    bool killed = false;
    bool reported = false;  ///< exit already surfaced through poll().
    ShardExit exit;
  };

  std::uint64_t next_handle_ = 1;
  std::map<std::uint64_t, Run> runs_;
  std::map<std::uint64_t, std::vector<MockOutcome>> scripts_;
  std::map<std::uint64_t, unsigned> launch_counts_;
  std::vector<std::string> events_;
  std::function<void(std::uint64_t, const std::vector<std::string>&)>
      on_success_;
  bool checkpoint_progress_ = true;
};

}  // namespace paradet::runtime
