// campaign_orchestrator: one command runs a whole sharded campaign.
//
//   campaign_orchestrator --shards=N [--jobs-per-shard=J] --run-dir=DIR
//                         [--out=merged.json] [--retries=R]
//                         [--straggler-factor=X] [--inject-kill=K]
//                         -- driver [driver args...]
//
// Spawns N subprocesses of the driver command (any bench/example that
// runs as a Campaign), each with `--jobs=J --shard=k/N` and per-shard
// `--out`/`--checkpoint` paths under DIR; monitors them, restarts
// failures and stragglers from their checkpoint journals (bounded
// retries), and merges the shard artifacts into one file byte-identical
// to what an unsharded `--out` run writes. `--inject-kill=K` is the
// recovery drill CI runs: SIGKILL shard K once after its checkpoint
// shows progress, then let the restart path resume it. Shards run on
// this host; to spread a campaign over machines, run `driver --shard=K/N
// --out=...` on each and fold the artifacts with merge_results.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "runtime/orchestrator.h"

namespace {

int usage(const char* argv0, int status) {
  std::fprintf(
      stderr,
      "usage: %s --shards=N [--jobs-per-shard=J] --run-dir=DIR\n"
      "          [--out=merged.json] [--retries=R] [--straggler-factor=X]\n"
      "          [--inject-kill=K] -- driver [args...]\n"
      "Runs `driver` as N shard subprocesses with per-shard artifact and\n"
      "checkpoint paths under DIR, restarts failed or straggling shards\n"
      "from their checkpoints, and merges the artifacts (byte-identical\n"
      "to the unsharded run's --out).\n",
      argv0);
  return status;
}

bool parse_u64_flag(const char* arg, const char* value, unsigned long long max,
                    unsigned long long* out) {
  char* end = nullptr;
  if (*value < '0' || *value > '9') return false;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || parsed > max) {
    std::fprintf(stderr, "invalid argument '%s'\n", arg);
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradet;

  runtime::OrchestratorOptions options;
  options.shards = 0;  // required; 0 marks "not given".
  std::vector<std::string> driver;
  bool saw_separator = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (saw_separator) {
      driver.emplace_back(arg);
      continue;
    }
    unsigned long long value = 0;
    if (std::strcmp(arg, "--") == 0) {
      saw_separator = true;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      if (!parse_u64_flag(arg, arg + 9, 4096, &value) || value == 0) {
        return usage(argv[0], 2);
      }
      options.shards = value;
    } else if (std::strncmp(arg, "--jobs-per-shard=", 17) == 0) {
      if (!parse_u64_flag(arg, arg + 17, 65535, &value) || value == 0) {
        return usage(argv[0], 2);
      }
      options.jobs_per_shard = static_cast<unsigned>(value);
    } else if (std::strncmp(arg, "--run-dir=", 10) == 0) {
      options.run_dir = arg + 10;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      options.merged_out = arg + 6;
    } else if (std::strncmp(arg, "--retries=", 10) == 0) {
      if (!parse_u64_flag(arg, arg + 10, 100, &value)) {
        return usage(argv[0], 2);
      }
      options.retries = static_cast<unsigned>(value);
    } else if (std::strncmp(arg, "--straggler-factor=", 19) == 0) {
      char* end = nullptr;
      options.straggler_factor = std::strtod(arg + 19, &end);
      if (end == arg + 19 || *end != '\0' || options.straggler_factor < 0) {
        std::fprintf(stderr, "invalid argument '%s'\n", arg);
        return usage(argv[0], 2);
      }
    } else if (std::strncmp(arg, "--inject-kill=", 14) == 0) {
      if (!parse_u64_flag(arg, arg + 14, 4095, &value)) {
        return usage(argv[0], 2);
      }
      options.inject_kill = static_cast<std::int64_t>(value);
    } else if (std::strcmp(arg, "--help") == 0) {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (driver command goes after "
                           "a `--` separator)\n",
                   arg);
      return usage(argv[0], 2);
    }
  }

  if (options.shards == 0 || options.run_dir.empty() || driver.empty()) {
    std::fprintf(stderr,
                 "--shards=N, --run-dir=DIR and a `-- driver ...` command "
                 "are all required\n");
    return usage(argv[0], 2);
  }

  try {
    const runtime::OrchestratorResult result =
        runtime::orchestrate(driver, options);
    if (!result.merged_ok) {
      std::fprintf(stderr, "campaign_orchestrator: campaign failed\n");
      for (const runtime::ShardStatus& shard : result.shards) {
        if (!shard.succeeded) {
          std::fprintf(stderr, "  shard %llu: %u launches, last %s%d — %s\n",
                       static_cast<unsigned long long>(shard.index),
                       shard.launches,
                       shard.last_signal != 0 ? "signal " : "exit ",
                       shard.last_signal != 0 ? shard.last_signal
                                              : shard.last_exit_code,
                       shard.log_path.c_str());
        }
      }
      return 1;
    }
    std::printf("%s\n", result.merged_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_orchestrator: %s\n", e.what());
    return 1;
  }
  return 0;
}
