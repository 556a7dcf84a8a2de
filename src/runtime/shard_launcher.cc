#include "runtime/shard_launcher.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "runtime/orchestrator.h"

namespace paradet::runtime {

// --- Interface defaults ------------------------------------------------------

bool ShardLauncher::checkpoint_progress(const std::string& path) {
  return checkpoint_has_progress(path);
}

// --- LocalShardLauncher ------------------------------------------------------

std::uint64_t LocalShardLauncher::launch(const std::vector<std::string>& argv,
                                         const std::string& log_path) {
  if (argv.empty()) {
    throw std::invalid_argument("launch: empty argv");
  }
  // The caller may pass argv by const ref but execvp wants mutable char*;
  // copy into the child's frame after fork.
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child: capture stdout+stderr in the shard log (append across
    // relaunches, so one file tells the shard's whole story), then exec.
    if (!log_path.empty()) {
      const int fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO) ::close(fd);
      }
    }
    std::vector<std::string> args = argv;
    std::vector<char*> child_argv;
    child_argv.reserve(args.size() + 1);
    for (std::string& arg : args) child_argv.push_back(arg.data());
    child_argv.push_back(nullptr);
    ::execvp(child_argv[0], child_argv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", child_argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  const std::uint64_t handle = next_handle_++;
  procs_[handle] = Proc{pid, ShardExit{}};
  return handle;
}

ShardExit LocalShardLauncher::poll(std::uint64_t handle) {
  const auto it = procs_.find(handle);
  if (it == procs_.end()) {
    throw std::invalid_argument("poll: unknown shard handle");
  }
  Proc& proc = it->second;
  if (proc.exit.exited) return proc.exit;

  int wait_status = 0;
  const pid_t reaped = ::waitpid(proc.pid, &wait_status, WNOHANG);
  if (reaped == 0 || (reaped < 0 && errno == EINTR)) {
    return proc.exit;  // still running.
  }
  proc.exit.exited = true;
  if (reaped == proc.pid) {
    proc.exit.exit_code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status)
                                                 : -1;
    proc.exit.signal = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
  } else {
    // ECHILD: the child vanished with an unknowable status (a SIGCHLD
    // handler or SIG_IGN in a host library reaped it first). Report a
    // non-clean exit — the retry path resumes from the checkpoint, so
    // re-covering an actually-successful run costs nothing.
    proc.exit.exit_code = -1;
    proc.exit.signal = 0;
  }
  return proc.exit;
}

void LocalShardLauncher::kill(std::uint64_t handle) {
  const auto it = procs_.find(handle);
  if (it == procs_.end() || it->second.exit.exited) return;
  ::kill(it->second.pid, SIGKILL);
}

void LocalShardLauncher::reap(std::uint64_t handle) {
  const auto it = procs_.find(handle);
  if (it == procs_.end() || it->second.exit.exited) return;
  int wait_status = 0;
  const pid_t reaped = ::waitpid(it->second.pid, &wait_status, 0);
  ShardExit& exit = it->second.exit;
  exit.exited = true;
  if (reaped == it->second.pid) {
    exit.exit_code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
    exit.signal = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
  } else {
    exit.exit_code = -1;
    exit.signal = 0;
  }
}

// --- MockShardLauncher -------------------------------------------------------

namespace {

/// The shard index a mocked launch is for, parsed from its --shard=K/N.
std::uint64_t mock_shard_index(const std::vector<std::string>& argv) {
  for (const std::string& arg : argv) {
    if (arg.rfind("--shard=", 0) == 0) {
      return std::strtoull(arg.c_str() + 8, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

void MockShardLauncher::script(std::uint64_t index,
                               std::vector<MockOutcome> outcomes) {
  if (outcomes.empty()) {
    throw std::invalid_argument("mock script needs at least one outcome");
  }
  scripts_[index] = std::move(outcomes);
}

void MockShardLauncher::on_success(
    std::function<void(std::uint64_t, const std::vector<std::string>&)>
        hook) {
  on_success_ = std::move(hook);
}

unsigned MockShardLauncher::launches(std::uint64_t index) const {
  const auto it = launch_counts_.find(index);
  return it == launch_counts_.end() ? 0 : it->second;
}

std::uint64_t MockShardLauncher::launch(const std::vector<std::string>& argv,
                                        const std::string&) {
  const std::uint64_t shard = mock_shard_index(argv);
  const unsigned attempt = launch_counts_[shard]++;
  const auto script = scripts_.find(shard);
  MockOutcome outcome;  // unscripted shards succeed immediately.
  if (script != scripts_.end()) {
    const auto& outcomes = script->second;
    outcome = attempt < outcomes.size() ? outcomes[attempt] : outcomes.back();
  }
  const std::uint64_t handle = next_handle_++;
  Run run;
  run.shard = shard;
  run.argv = argv;
  run.outcome = outcome;
  run.polls_left = outcome.polls;
  runs_[handle] = run;
  events_.push_back("launch " + std::to_string(shard));
  return handle;
}

ShardExit MockShardLauncher::poll(std::uint64_t handle) {
  const auto it = runs_.find(handle);
  if (it == runs_.end()) {
    throw std::invalid_argument("poll: unknown mock handle");
  }
  Run& run = it->second;
  if (run.exit.exited) return run.exit;

  if (run.killed) {
    run.exit = ShardExit{true, -1, SIGKILL};
  } else if (run.outcome.kind == MockOutcome::Kind::kHang) {
    return run.exit;  // runs until kill().
  } else if (run.polls_left > 0) {
    --run.polls_left;
    return run.exit;
  } else if (run.outcome.kind == MockOutcome::Kind::kSucceed) {
    if (on_success_) on_success_(run.shard, run.argv);
    run.exit = ShardExit{true, 0, 0};
  } else {
    run.exit = ShardExit{true, run.outcome.exit_code, run.outcome.signal};
  }
  if (!run.reported) {
    run.reported = true;
    events_.push_back("exit " + std::to_string(run.shard) +
                      (run.exit.clean() ? " clean" : " failed"));
  }
  return run.exit;
}

void MockShardLauncher::kill(std::uint64_t handle) {
  const auto it = runs_.find(handle);
  if (it == runs_.end() || it->second.exit.exited) return;
  it->second.killed = true;
  events_.push_back("kill " + std::to_string(it->second.shard));
}

void MockShardLauncher::reap(std::uint64_t handle) {
  const auto it = runs_.find(handle);
  if (it == runs_.end() || it->second.exit.exited) return;
  // A hang that was never killed would block a real reap; the mock
  // resolves it as a kill so unwind paths terminate.
  it->second.killed = true;
  poll(handle);
}

bool MockShardLauncher::checkpoint_progress(const std::string&) {
  return checkpoint_progress_;
}

}  // namespace paradet::runtime
