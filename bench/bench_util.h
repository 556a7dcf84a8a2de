// Shared plumbing for the figure/table reproduction harnesses. Each bench
// binary regenerates one table or figure from the paper: it sweeps the
// relevant parameter, runs the Table II suite, and prints the same
// rows/series the paper reports (plus the paper's reference values as
// comments, for EXPERIMENTS.md).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/config.h"
#include "runtime/campaign.h"
#include "runtime/checker_pool.h"
#include "runtime/parallel_runner.h"
#include "runtime/serialize.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace paradet::bench {

inline constexpr std::uint64_t kInstructionBudget = 4'000'000;

/// --scale=X: a factor in (0, 1000] that parses fully, else exit 2. A
/// negative, non-finite or huge factor would reach Scale::apply's
/// float-to-integer cast, which is undefined behaviour; past 1000 every
/// kernel outruns the instruction budget many times over anyway.
inline double parse_scale(const char* arg) {
  const char* text = arg + 8;
  char* end = nullptr;
  const double scale = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(scale) || scale <= 0 ||
      scale > 1000) {
    std::fprintf(stderr,
                 "invalid argument '%s': expected --scale=X with 0 < X <= "
                 "1000\n",
                 arg);
    std::exit(2);
  }
  return scale;
}

/// Whether `arg` is one of `flags`: the same name up to and including the
/// '=' of a valued flag, the whole word of a bare one.
inline bool driver_flag(const char* arg,
                        std::initializer_list<const char*> flags) {
  for (const char* flag : flags) {
    if (std::strncmp(arg, flag, std::strcspn(flag, "=") + 1) == 0) return true;
  }
  return false;
}

struct Options {
  double scale = 1.0;          ///< workload scale factor (--scale=X).
  std::string only;            ///< run a single benchmark (--benchmark=name).
  RuntimeOptions runtime;      ///< --jobs/--checker-threads/--out flags.

  /// `campaign` = true for drivers that run a runtime::Campaign and write
  /// it with write_out; others reject --out (exit 2) rather than silently
  /// writing nothing. `driver_flags` are the flags a driver parses
  /// itself, spelled as --help shows them (e.g. --fork=on|off): --help
  /// lists them, and any argument that is neither one of them (matched up
  /// to its '=') nor a shared flag exits 2, so a misspelled flag cannot
  /// silently run the defaults. An empty --benchmark= exits 2 too.
  static Options parse(int argc, char** argv, bool campaign = false,
                       std::initializer_list<const char*> driver_flags = {}) {
    Options options;
    options.runtime = RuntimeOptions::from_args(argc, argv, campaign);
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--scale=", 8) == 0) {
        options.scale = parse_scale(arg);
      } else if (std::strncmp(arg, "--benchmark=", 12) == 0) {
        // An empty name (an unset shell variable) must not quietly mean
        // "no filter" and run the whole suite.
        if (arg[12] == '\0') {
          std::fprintf(stderr,
                       "invalid argument '%s': expected a benchmark name\n",
                       arg);
          std::exit(2);
        }
        options.only = arg + 12;
      } else if (std::strcmp(arg, "--help") == 0) {
        std::printf("usage: %s [--scale=X] [--benchmark=name] [--jobs=N]"
                    " [--checker-threads=N]%s",
                    argv[0],
                    campaign ? "\n          [--out=artifact.json]" : "");
        if (driver_flags.size() != 0) std::printf("\n         ");
        for (const char* flag : driver_flags) std::printf(" [%s]", flag);
        std::printf("\n");
        std::exit(0);
      } else if (std::strcmp(arg, "--jobs") == 0 ||
                 std::strcmp(arg, "-j") == 0) {
        ++i;  // the worker count that follows, checked by from_args.
      } else if (!runtime_flag(arg) && !driver_flag(arg, driver_flags)) {
        std::fprintf(stderr, "unknown argument '%s' (see --help)\n", arg);
        std::exit(2);
      }
    }
    return options;
  }

  runtime::ParallelRunner runner() const {
    return runtime::ParallelRunner(runtime.jobs);
  }

  /// Checker-replay workers each simulated run may spawn — what drivers
  /// put in SimJob::checker: the requested --checker-threads, clamped so
  /// that --jobs concurrent runs plus their absorbers cannot
  /// oversubscribe the host. Results are byte-identical at any value, so
  /// the clamp never changes artifacts.
  CheckerExec checker_exec() const {
    return runtime::CheckerPool::bounded(runtime.checker_threads,
                                         runtime.jobs);
  }

  /// Writes `artifact` to the --out path, if one was given. Drivers call
  /// it as soon as the campaign returns, before printing any table, so an
  /// unwritable path exits 1 (through cli_main) with no table printed.
  void write_out(const runtime::CampaignArtifact& artifact) const {
    if (!runtime.out_path.empty()) {
      runtime::write_artifact_file(runtime.out_path, artifact);
    }
  }
};

/// Runs a driver body, converting escaping exceptions (an unwritable --out
/// path, ...) into a clean stderr message and exit 1 instead of
/// std::terminate.
inline int cli_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}

/// The Table II suite at the requested scale, optionally filtered.
inline std::vector<workloads::Workload> suite(const Options& options) {
  std::vector<workloads::Workload> all =
      workloads::standard_suite(workloads::Scale{options.scale});
  if (options.only.empty()) return all;
  std::vector<workloads::Workload> filtered;
  for (auto& workload : all) {
    if (workload.name == options.only) filtered.push_back(std::move(workload));
  }
  return filtered;
}

/// Like suite(), but an empty selection — an over-narrow `--benchmark`
/// filter — is an operator error: a sweep driver that prints an empty
/// table (or writes an empty artifact) and exits 0 looks like success.
/// Diagnose to stderr and exit 1 instead.
inline std::vector<workloads::Workload> suite_or_fail(const Options& options) {
  std::vector<workloads::Workload> selected = suite(options);
  if (selected.empty()) {
    std::fprintf(stderr,
                 "--benchmark=%s matches no Table II benchmark; nothing to "
                 "run\n",
                 options.only.c_str());
    std::exit(1);
  }
  return selected;
}

inline void print_header(const char* figure, const char* paper_reference) {
  std::printf("# %s\n", figure);
  std::printf("# paper reference: %s\n", paper_reference);
}

}  // namespace paradet::bench
