// perfbench: the simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload suite-inline|suite-parallel|campaign
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off;
// --trace 1 is the separate traced run that drives each layer from outside
// and reports per-layer metrics (and writes its spans to PATH). Every run
// checks its outputs. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// preceded by a "# report {...}" line with the fuller report (quartiles,
// sample counts, the paper's reference slowdown). A set-up that would
// measure the wrong thing (a debug or sanitizer build, too few CPUs for
// the parallel mode) is refused with exit code 2 and no result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench {
namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload suite-inline|suite-parallel|"
               "campaign --seed N --seconds S --trace 0|1 [--spans PATH]\n");
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

/// Parses argv into `options`; false (after a diagnostic) on any error.
bool parse(int argc, char** argv, Options* options) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = options->workload == "suite-inline" ||
                      options->workload == "suite-parallel" ||
                      options->workload == "campaign";
      if (!have_workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", value);
        return false;
      }
    } else if (flag == "--seed" && parse_u64(value, &number)) {
      options->seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options->seconds > 0 &&
                     options->seconds <= 3600;
      if (!have_seconds) {
        std::fprintf(stderr, "--seconds wants a number in (0, 3600]\n");
        return false;
      }
    } else if (flag == "--trace" && parse_u64(value, &number) && number <= 1) {
      options->trace = number == 1;
      have_trace = true;
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      std::fprintf(stderr, "bad argument: %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    std::fprintf(stderr, "--workload, --seed, --seconds and --trace are "
                         "all required\n");
    return false;
  }
  return true;
}

/// Timings from an unoptimised or instrumented build say nothing about
/// the simulator; refuse to produce them.
void refuse_misleading_build() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  throw Refusal(
      "this is a debug (unoptimised or assert-enabled) build; benchmark a "
      "RelWithDebInfo build");
#endif
#ifdef PERFBENCH_SANITIZED
  throw Refusal("this build is instrumented by a sanitizer; benchmark a "
                "plain RelWithDebInfo build");
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "RelWithDebInfo" && type != "Release") {
    throw Refusal("build type '" + type +
                  "' is not RelWithDebInfo (the repository default)");
  }
}

int run(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, &options)) {
    usage();
    return 2;
  }
  Output out;
  try {
    refuse_misleading_build();
    if (options.trace) {
      run_traced(options, out);
    } else if (options.workload == "campaign") {
      run_campaign(options, out);
    } else {
      run_suite(options, options.workload == "suite-parallel", out);
    }
  } catch (const Refusal& refusal) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 refusal.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }

  const std::uint64_t attempted = out.tally.attempted();
  const std::uint64_t failed = out.tally.failed();
  out.report.add("failed_frac",
                 attempted == 0 ? 1.0
                                : static_cast<double>(failed) /
                                      static_cast<double>(attempted),
                 "ratio");
  std::printf("# perfbench %s seed=%llu seconds=%s trace=%d build=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              json_number(options.seconds).c_str(), options.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE);
  for (const Metric& metric : out.report.items()) {
    std::printf("#   %-40s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("# report {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"metrics\": %s}\n",
              json_string(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, out.report.json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              attempted > 0 && failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              out.metrics.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
