#include "runtime/orchestrator.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runtime/serialize.h"
#include "runtime/shard_launcher.h"

namespace paradet::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// Shard liveness poll interval.
constexpr std::chrono::milliseconds kPollInterval{25};

struct ShardProc {
  ShardStatus status;
  std::vector<std::string> argv;
  std::uint64_t handle = 0;
  bool running = false;  ///< launched and its exit not yet handled.
  bool kill_sent = false;
  Clock::time_point launched_at;
};

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string join_argv(const std::vector<std::string>& argv) {
  std::string joined;
  for (const std::string& arg : argv) {
    if (!joined.empty()) joined += ' ';
    joined += arg;
  }
  return joined;
}

/// Kills and reaps every shard still running when orchestrate() unwinds:
/// a rerun on the same run dir would otherwise race them on the very same
/// journal and artifact paths.
class KillRunningShards {
 public:
  KillRunningShards(ShardLauncher& launcher,
                    const std::vector<ShardProc>& procs)
      : launcher_(launcher), procs_(procs) {}
  KillRunningShards(const KillRunningShards&) = delete;
  KillRunningShards& operator=(const KillRunningShards&) = delete;

  ~KillRunningShards() {
    for (const ShardProc& proc : procs_) {
      if (!proc.running) continue;
      launcher_.kill(proc.handle);
      launcher_.reap(proc.handle);
    }
  }

 private:
  ShardLauncher& launcher_;
  const std::vector<ShardProc>& procs_;
};

}  // namespace

std::string shard_out_path(const OrchestratorOptions& options,
                           std::uint64_t index) {
  return options.run_dir + "/shard_" + std::to_string(index) + ".json";
}

std::string shard_checkpoint_path(const OrchestratorOptions& options,
                                  std::uint64_t index) {
  return options.run_dir + "/shard_" + std::to_string(index) + ".ckpt.json";
}

std::string shard_log_path(const OrchestratorOptions& options,
                           std::uint64_t index) {
  return options.run_dir + "/shard_" + std::to_string(index) + ".log";
}

std::vector<std::string> shard_argv(
    const std::vector<std::string>& driver_command,
    const OrchestratorOptions& options, std::uint64_t index) {
  std::vector<std::string> argv;
  argv.reserve(driver_command.size() + 4);
  for (std::size_t i = 0; i < driver_command.size(); ++i) {
    const std::string& arg = driver_command[i];
    // The orchestrator owns the sharding/artifact/checkpoint flags — it
    // lays their paths out under the run directory. A caller-supplied
    // spelling is dropped, not fought with.
    if (i > 0 && (arg.rfind("--shard=", 0) == 0 ||
                  arg.rfind("--out=", 0) == 0 ||
                  arg.rfind("--checkpoint=", 0) == 0)) {
      continue;
    }
    argv.push_back(arg);
  }
  argv.push_back("--jobs=" + std::to_string(options.jobs_per_shard));
  argv.push_back("--shard=" + std::to_string(index) + "/" +
                 std::to_string(options.shards));
  argv.push_back("--out=" + shard_out_path(options, index));
  argv.push_back("--checkpoint=" + shard_checkpoint_path(options, index));
  return argv;
}

bool is_straggler(double running_seconds,
                  const std::vector<double>& finished_seconds,
                  std::uint64_t total_shards, double straggler_factor) {
  if (straggler_factor <= 0.0 || finished_seconds.empty()) return false;
  // Wait for a quorum: with fewer than half the shards finished the
  // median says little, and killing early runs would thrash.
  if (finished_seconds.size() * 2 < total_shards) return false;
  std::vector<double> sorted = finished_seconds;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  // Trivial shards can finish in ~0s; a floor keeps factor × median from
  // branding every still-running shard a straggler.
  const double threshold = std::max(straggler_factor * median, 0.1);
  return running_seconds > threshold;
}

bool checkpoint_has_progress(const std::string& checkpoint_path) {
  // A journal with any line beyond the header means at least one
  // completed task survived to disk.
  std::FILE* f = std::fopen(checkpoint_path.c_str(), "rb");
  if (f == nullptr) return false;
  unsigned newlines = 0;
  char buf[1 << 12];
  std::size_t got = 0;
  while (newlines < 2 && (got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    for (std::size_t i = 0; i < got; ++i) {
      if (buf[i] == '\n' && ++newlines == 2) break;
    }
  }
  std::fclose(f);
  return newlines >= 2;
}

OrchestratorResult orchestrate(const std::vector<std::string>& driver_command,
                               const OrchestratorOptions& options,
                               ShardLauncher& launcher) {
  if (driver_command.empty()) {
    throw std::invalid_argument("orchestrate: empty driver command");
  }
  if (options.shards == 0) {
    throw std::invalid_argument("orchestrate: need at least one shard");
  }
  if (options.run_dir.empty()) {
    throw std::invalid_argument("orchestrate: run_dir is required");
  }
  if (options.inject_kill >= 0 &&
      static_cast<std::uint64_t>(options.inject_kill) >= options.shards) {
    throw std::invalid_argument("orchestrate: inject_kill shard out of range");
  }
  // A path-shaped driver that is not executable must fail here, before
  // the run directory fills with doomed exit-127 logs. Bare names are left
  // to the child's PATH lookup (an unrunnable one surfaces as exit 127).
  const std::string& driver = driver_command[0];
  if (driver.find('/') != std::string::npos &&
      ::access(driver.c_str(), X_OK) != 0) {
    throw std::runtime_error("driver '" + driver +
                             "' is not an executable file");
  }
  std::filesystem::create_directories(options.run_dir);
  // A parent that set SIGCHLD to SIG_IGN (inherited across fork/exec)
  // would have the kernel auto-reap a process launcher's children, making
  // every waitpid fail with ECHILD and the monitor loop treat each shard
  // as crashed. Claim normal child semantics for ourselves.
  ::signal(SIGCHLD, SIG_DFL);

  OrchestratorResult result;
  result.merged_path = options.merged_out.empty()
                           ? options.run_dir + "/merged.json"
                           : options.merged_out;

  std::vector<ShardProc> procs(options.shards);
  for (std::uint64_t k = 0; k < options.shards; ++k) {
    ShardProc& proc = procs[k];
    proc.status.index = k;
    proc.status.out_path = shard_out_path(options, k);
    proc.status.checkpoint_path = shard_checkpoint_path(options, k);
    proc.status.log_path = shard_log_path(options, k);
    proc.argv = shard_argv(driver_command, options, k);
  }
  // Armed before the first launch: if launching shard k throws, shards
  // 0..k-1 must not outlive this call.
  const KillRunningShards guard(launcher, procs);

  const auto launch = [&launcher](ShardProc& proc) {
    proc.handle = launcher.launch(proc.argv, proc.status.log_path);
    proc.running = true;
    proc.kill_sent = false;
    proc.launched_at = Clock::now();
    ++proc.status.launches;
  };
  // The shard's first launch, the retries, and one extra for the
  // inject-kill drill target so the induced restart does not eat into its
  // real-failure budget.
  const auto allowed_launches = [&options](const ShardProc& proc) {
    return 1 + options.retries + (proc.status.inject_kill_fired ? 1u : 0u);
  };

  for (ShardProc& proc : procs) {
    launch(proc);
    std::fprintf(stderr, "orchestrator: shard %llu/%llu: %s\n",
                 static_cast<unsigned long long>(proc.status.index),
                 static_cast<unsigned long long>(options.shards),
                 join_argv(proc.argv).c_str());
  }

  // The drill's two steps: the kill is sent once (or found unnecessary),
  // and the target is restarted once, by its kill or by its clean exit.
  bool drill_kill_pending = options.inject_kill >= 0;
  bool drill_restart_pending = options.inject_kill >= 0;
  std::vector<double> finished_seconds;
  std::uint64_t stopped = 0;  // shards that succeeded or gave up.
  while (true) {
    for (ShardProc& proc : procs) {
      if (!proc.running) continue;
      const std::uint64_t k = proc.status.index;
      const bool drill_target =
          static_cast<std::int64_t>(k) == options.inject_kill;

      const ShardExit exit = launcher.poll(proc.handle);
      if (exit.exited) {
        proc.running = false;
        const double elapsed = elapsed_seconds(proc.launched_at);
        proc.status.last_exit_code = exit.exit_code;
        proc.status.last_signal = exit.signal;

        if (exit.clean()) {
          if (drill_restart_pending && drill_target) {
            // The drill target outran the kill — either it was never
            // sent, or it raced the clean exit and landed as a no-op.
            // Relaunch once anyway: it resumes from its completed
            // checkpoint, re-runs nothing, and rewrites the identical
            // artifact — the resume path still gets exercised.
            drill_restart_pending = false;
            drill_kill_pending = false;
            proc.status.inject_kill_fired = true;
            ++result.restarts;
            std::fprintf(stderr,
                         "orchestrator: shard %llu finished before the "
                         "injected kill took effect; relaunching once to "
                         "exercise checkpoint resume\n",
                         static_cast<unsigned long long>(k));
            launch(proc);
            continue;
          }
          proc.status.succeeded = true;
          proc.status.wall_seconds = elapsed;
          ++stopped;
          finished_seconds.push_back(elapsed);
          std::fprintf(stderr, "orchestrator: shard %llu done in %.2fs\n",
                       static_cast<unsigned long long>(k), elapsed);
          continue;
        }

        // Crash, kill (injected or straggler) or nonzero exit: relaunch
        // the identical command — it resumes from the shard's checkpoint
        // journal — while the retry budget lasts.
        if (proc.status.launches < allowed_launches(proc)) {
          if (proc.status.inject_kill_fired) drill_restart_pending = false;
          ++result.restarts;
          std::fprintf(
              stderr,
              "orchestrator: shard %llu died (%s%d) after %.2fs; "
              "restarting from its checkpoint (attempt %u of %u)\n",
              static_cast<unsigned long long>(k),
              exit.signal != 0 ? "signal " : "exit ",
              exit.signal != 0 ? exit.signal : exit.exit_code, elapsed,
              proc.status.launches + 1, allowed_launches(proc));
          launch(proc);
        } else {
          ++stopped;
          std::fprintf(stderr,
                       "orchestrator: shard %llu failed %u times; giving up "
                       "(see %s)\n",
                       static_cast<unsigned long long>(k),
                       proc.status.launches, proc.status.log_path.c_str());
        }
        continue;
      }

      // Still running: fire the injected kill once its checkpoint proves
      // there is something to resume, and police stragglers.
      if (drill_kill_pending && drill_target && !proc.kill_sent &&
          launcher.checkpoint_progress(proc.status.checkpoint_path)) {
        drill_kill_pending = false;
        proc.status.inject_kill_fired = true;
        proc.kill_sent = true;
        launcher.kill(proc.handle);
        std::fprintf(stderr,
                     "orchestrator: injected SIGKILL into shard %llu "
                     "after checkpoint progress\n",
                     static_cast<unsigned long long>(k));
        continue;
      }
      // One straggler kill per shard: the restart already resumed it from
      // its checkpoint, so if it is *still* over the threshold the
      // remaining work is genuinely long (one atomic task, a slow box) —
      // killing again would just burn the retry budget re-running it. And
      // never kill a shard with no relaunch budget left (e.g. --retries=0):
      // the orchestrator must not destroy a run it cannot restart.
      const double running_seconds = elapsed_seconds(proc.launched_at);
      if (!proc.kill_sent && !proc.status.straggler_killed &&
          proc.status.launches < allowed_launches(proc) &&
          is_straggler(running_seconds, finished_seconds, options.shards,
                       options.straggler_factor)) {
        proc.kill_sent = true;
        proc.status.straggler_killed = true;
        launcher.kill(proc.handle);
        std::fprintf(stderr,
                     "orchestrator: shard %llu is straggling (%.2fs with "
                     "%zu of %llu shards already finished); killing for a "
                     "checkpoint restart\n",
                     static_cast<unsigned long long>(k), running_seconds,
                     finished_seconds.size(),
                     static_cast<unsigned long long>(options.shards));
      }
    }
    if (stopped == options.shards) break;
    std::this_thread::sleep_for(kPollInterval);
  }

  for (const ShardProc& proc : procs) result.shards.push_back(proc.status);
  if (!std::all_of(result.shards.begin(), result.shards.end(),
                   [](const ShardStatus& s) { return s.succeeded; })) {
    return result;
  }

  // Merge through the same library path tools/merge_results drives; the
  // output is byte-identical to the unsharded run's --out artifact.
  std::vector<CampaignArtifact> artifacts;
  artifacts.reserve(result.shards.size());
  for (const ShardStatus& shard : result.shards) {
    artifacts.push_back(read_artifact_file(shard.out_path));
  }
  write_artifact_file(result.merged_path,
                      merge_artifacts(std::move(artifacts)));
  result.merged_ok = true;
  std::fprintf(stderr,
               "orchestrator: merged %zu shard artifacts -> %s "
               "(%u restart%s)\n",
               result.shards.size(), result.merged_path.c_str(),
               result.restarts, result.restarts == 1 ? "" : "s");
  return result;
}

OrchestratorResult orchestrate(const std::vector<std::string>& driver_command,
                               const OrchestratorOptions& options) {
  LocalShardLauncher launcher;
  return orchestrate(driver_command, options, launcher);
}

}  // namespace paradet::runtime
