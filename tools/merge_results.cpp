// merge_results: folds campaign shard artifacts (written by a bench or
// example run with `--shard=K/N --out=shard_K.json`) back into the
// single-machine artifact.
//
//   merge_results --out=merged.json shard_0.json shard_1.json ...
//
// The merge validates that every input describes the same campaign, that
// the shards' runs are disjoint and cover every task index, then
// re-aggregates in task-index order — so `merged.json` is byte-identical
// to the file an unsharded `--out=merged.json` run would have written
// (scripts/shard_smoke_test.sh checks exactly that with cmp).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "runtime/serialize.h"

namespace {

int usage(const char* argv0, int status) {
  std::fprintf(stderr,
               "usage: %s [--out=merged.json] shard_0.json shard_1.json ...\n"
               "Merges campaign shard artifacts into the single-machine "
               "artifact.\n",
               argv0);
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paradet;

  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      if (arg[6] == '\0') {
        std::fprintf(stderr, "invalid argument '%s': expected a file path\n",
                     arg);
        return usage(argv[0], 2);
      }
      out_path = arg + 6;
    } else if (std::strcmp(arg, "--help") == 0) {
      return usage(argv[0], 0);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return usage(argv[0], 2);
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0], 2);

  try {
    std::vector<runtime::CampaignArtifact> shards;
    shards.reserve(inputs.size());
    for (const std::string& path : inputs) {
      shards.push_back(runtime::read_artifact_file(path));
      const runtime::CampaignArtifact& shard = shards.back();
      std::printf("read %s: shard %llu/%llu, %zu of %llu runs\n",
                  path.c_str(),
                  static_cast<unsigned long long>(shard.shard.index),
                  static_cast<unsigned long long>(shard.shard.count),
                  shard.runs.size(),
                  static_cast<unsigned long long>(shard.tasks));
    }

    const runtime::CampaignArtifact merged =
        runtime::merge_artifacts(std::move(shards));
    const runtime::CampaignAggregate& aggregate = merged.aggregate;
    std::printf("merged campaign seed=%llu: %llu runs, %llu detections, "
                "mean main cycles %.1f, mean delay %.1f ns\n",
                static_cast<unsigned long long>(merged.seed),
                static_cast<unsigned long long>(aggregate.runs),
                static_cast<unsigned long long>(aggregate.errors_detected),
                aggregate.main_cycles.mean(),
                aggregate.delay_ns.summary().mean());

    if (!out_path.empty()) {
      runtime::write_artifact_file(out_path, merged);
      std::printf("wrote %s\n", out_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "merge_results: %s\n", e.what());
    return 1;
  }
  return 0;
}
