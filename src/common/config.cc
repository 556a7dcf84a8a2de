#include "common/config.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace paradet {

namespace {

[[noreturn]] void bad_flag(const char* arg, const char* expected) {
  std::fprintf(stderr, "invalid argument '%s': expected %s\n", arg, expected);
  std::exit(2);
}

/// strtoull, but rejecting the sign characters strtoull itself accepts (a
/// negative value would silently wrap to a huge unsigned one) and numeric
/// overflow (which strtoull silently saturates to ULLONG_MAX). Failure is
/// signalled the way callers already check: *end left at `text`.
unsigned long long parse_u64(const char* text, char** end) {
  if (*text < '0' || *text > '9') {
    *end = const_cast<char*>(text);
    return 0;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text, end, 10);
  if (errno == ERANGE) {
    *end = const_cast<char*>(text);
    return 0;
  }
  return value;
}

/// Parses a worker count: 0 (= all cores) .. 65535. `flag` is the full
/// argument, for the error message.
unsigned parse_jobs(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = parse_u64(text, &end);
  if (end == text || *end != '\0' || value > 65535) {
    bad_flag(flag, "a worker count between 0 (all cores) and 65535");
  }
  return static_cast<unsigned>(value);
}

}  // namespace

bool BranchPredictorConfig::valid_table_sizes() const {
  const auto pow2 = [](unsigned n) { return n != 0 && (n & (n - 1)) == 0; };
  return pow2(local_entries) && pow2(global_entries) &&
         pow2(chooser_entries) && pow2(btb_entries) &&
         local_history_bits > 0 && local_history_bits < 16;
}

RuntimeOptions RuntimeOptions::from_args(int argc, char** argv,
                                         bool campaign_flags) {
  RuntimeOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!campaign_flags && std::strncmp(arg, "--out", 5) == 0) {
      std::fprintf(stderr,
                   "'%s' is not supported by this driver (it does not run a "
                   "campaign)\n",
                   arg);
      std::exit(2);
    }
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      options.jobs = parse_jobs(arg, arg + 7);
    } else if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      if (i + 1 >= argc) bad_flag(arg, "a worker count to follow");
      ++i;
      options.jobs = parse_jobs(argv[i], argv[i]);
    } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      options.jobs = parse_jobs(arg, arg + 2);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      // An empty path (an unset shell variable) must not quietly mean
      // "no artifact".
      if (arg[6] == '\0') bad_flag(arg, "a file path");
      options.out_path = arg + 6;
    } else if (std::strncmp(arg, "--checker-threads=", 18) == 0) {
      const char* text = arg + 18;
      char* end = nullptr;
      const unsigned long long value = parse_u64(text, &end);
      if (end == text || *end != '\0' || value > 65535) {
        bad_flag(arg,
                 "a replay thread count between 0 (inline replay) and 65535");
      }
      options.checker_threads = static_cast<unsigned>(value);
    } else if (std::strcmp(arg, "--out") == 0 ||
               std::strcmp(arg, "--checker-threads") == 0) {
      // Only the '=' forms exist; swallowing e.g. `--checker-threads 4`
      // would let the next driver's positional parsing misread "4".
      bad_flag(arg, "the --flag=value form");
    }
  }
  return options;
}

bool runtime_flag(const char* arg) {
  for (const char* prefix : {"--jobs=", "--checker-threads=", "--out="}) {
    if (std::strncmp(arg, prefix, std::strlen(prefix)) == 0) return true;
  }
  return std::strncmp(arg, "-j", 2) == 0;  // -jN
}

SystemConfig SystemConfig::standard() {
  SystemConfig cfg;
  cfg.l1i = CacheConfig{.name = "L1I",
                        .size_bytes = 32 * 1024,
                        .assoc = 2,
                        .line_bytes = 64,
                        .hit_latency = 2,
                        .mshrs = 6};
  cfg.l1d = CacheConfig{.name = "L1D",
                        .size_bytes = 32 * 1024,
                        .assoc = 2,
                        .line_bytes = 64,
                        .hit_latency = 2,
                        .mshrs = 6};
  cfg.l2 = CacheConfig{.name = "L2",
                       .size_bytes = 1024 * 1024,
                       .assoc = 16,
                       .line_bytes = 64,
                       .hit_latency = 12,
                       .mshrs = 16};
  return cfg;
}

}  // namespace paradet
