// Fault-injection campaign example: using the public fault API to measure
// detection coverage and latency over many random transient strikes, the
// way a reliability engineer would qualify the scheme for a workload.
//
// Demonstrates:
//   * building FaultSpecs for different microarchitectural sites;
//   * the detected / masked / silent classification via
//     sim::classify_fault_outcome — masked requires registers, pc, exit
//     trap AND the final-memory digest to match the clean run (the
//     scheme's contract is zero silent corruptions for in-sphere faults,
//     and memory-only corruption is still corruption);
//   * warm-state forking — the fault-free prefix of each strike is
//     simulated once per injection window (sim::capture_warm_state) and
//     every strike in the window forks the shared copy-on-write snapshot
//     (sim::run_job_from); results are byte-identical to full runs, so
//     `--fork=off` reports exactly the same numbers, just slower;
//   * detection-latency statistics from DetectionEvent::detected_at;
//   * the §IV-I over-detection rate from checker-side faults;
//   * runtime::Campaign — all strikes run as one parallel batch with
//     order-independent per-task seeding, so `--jobs=8` reports the exact
//     numbers `--jobs=1` does, just faster, and `--out=artifact.json`
//     writes the byte-identical artifact at any --jobs.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "runtime/campaign.h"
#include "runtime/checker_pool.h"
#include "runtime/serialize.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace {

int run(int argc, char** argv) {
  using namespace paradet;
  unsigned trials_per_site = 12;
  bool use_fork = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 || std::strcmp(argv[i], "-j") == 0) {
      ++i;  // skip the flag's value; RuntimeOptions consumes it.
    } else if (std::strncmp(argv[i], "--fork=", 7) == 0) {
      use_fork = std::strcmp(argv[i] + 7, "on") == 0;
      if (!use_fork && std::strcmp(argv[i] + 7, "off") != 0) {
        std::fprintf(stderr, "invalid argument '%s': expected --fork=on|off\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [trials-per-site] [--jobs=N]"
                  " [--checker-threads=N] [--fork=on|off]\n"
                  "          [--out=artifact.json]\n",
                  argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      // A misspelled or removed flag must not silently run the defaults.
      if (!runtime_flag(argv[i])) {
        std::fprintf(stderr, "unknown argument '%s' (see --help)\n",
                     argv[i]);
        return 2;
      }
    } else {
      // The positional argument is the per-site trial count; anything
      // non-numeric here is a mistyped flag, not a count of zero.
      char* end = nullptr;
      errno = 0;
      const unsigned long long trials = std::strtoull(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || errno == ERANGE ||
          trials > 1'000'000) {
        std::fprintf(stderr, "invalid trial count '%s'\n", argv[i]);
        return 2;
      }
      trials_per_site = static_cast<unsigned>(trials);
    }
  }
  const RuntimeOptions host_options = RuntimeOptions::from_args(argc, argv, /*campaign_flags=*/true);
  const runtime::ParallelRunner runner(host_options.jobs);
  const CheckerExec checker = runtime::CheckerPool::bounded(
      host_options.checker_threads, host_options.jobs);

  const SystemConfig config = SystemConfig::standard();
  const auto workload =
      workloads::make_freqmine(workloads::Scale{.factor = 0.08});
  const auto assembled = workloads::assemble_or_die(workload);

  // The job every run below simulates, fault-free or struck.
  sim::SimJob job;
  job.config = config;
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = 500'000;
  job.checker = checker;
  const auto clean = sim::run_job(job, assembled);
  std::printf("workload %s: %llu instructions, %llu uops, clean run ok "
              "(%u workers, fork %s)\n\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(clean.instructions),
              static_cast<unsigned long long>(clean.uops), runner.jobs(),
              use_fork ? "on" : "off");

  const struct {
    core::FaultSite site;
    const char* label;
  } sites[] = {
      {core::FaultSite::kMainArchReg, "register file (soft)"},
      {core::FaultSite::kMainStoreValue, "store data path (soft)"},
      {core::FaultSite::kMainLoadValuePostLfu, "load value post-LFU (soft)"},
      {core::FaultSite::kMainAluStuckAt, "integer ALU (hard, stuck-at)"},
      {core::FaultSite::kCheckerArchReg, "checker core (over-detection)"},
  };
  const std::size_t num_sites = std::size(sites);

  // One warm state per injection window, captured lazily by whichever
  // strike gets there first; later strikes in the window fork it.
  constexpr std::size_t kForkBuckets = 4;
  struct WarmSlot {
    std::once_flag once;
    std::unique_ptr<sim::WarmState> warm;  // null: program ended early.
  };
  std::vector<std::unique_ptr<WarmSlot>> warm_pool;
  if (use_fork) {
    warm_pool.resize(kForkBuckets);
    for (auto& slot : warm_pool) slot = std::make_unique<WarmSlot>();
  }

  // One task per (site, trial); the fault spec is derived from the task's
  // own seed, never from a shared serially-advanced RNG — so every strike
  // is the same at any --jobs.
  const runtime::Campaign campaign(num_sites * trials_per_site,
                                   /*seed=*/0xFA017CA3);
  const auto artifact = campaign.run(
      runner, [&](std::size_t i, std::uint64_t task_seed) {
        const auto& site = sites[i / trials_per_site];
        SplitMix64 rng(task_seed);
        core::FaultInjector faults;
        core::FaultSpec spec;
        spec.site = site.site;
        spec.at_seq = 2000 + rng.next_below(clean.uops - 4000);
        spec.reg = 5 + static_cast<unsigned>(rng.next_below(25));
        spec.bit = static_cast<unsigned>(rng.next_below(64));
        spec.segment_ordinal = rng.next_below(10);
        spec.checker_local_index = rng.next_below(100);
        spec.alu_index = static_cast<unsigned>(
            rng.next_below(config.main_core.int_alus));
        faults.add(spec);

        if (use_fork) {
          const std::uint64_t width =
              std::max<std::uint64_t>(clean.uops / kForkBuckets, 1);
          const std::size_t bucket = std::min<std::size_t>(
              static_cast<std::size_t>(spec.at_seq / width), kForkBuckets - 1);
          WarmSlot& slot = *warm_pool[bucket];
          std::call_once(slot.once, [&] {
            slot.warm =
                sim::capture_warm_state(job, assembled, bucket * width);
          });
          // tail_safe proves every spec in `faults` triggers at or after
          // the capture point; anything earlier (a checker-segment strike
          // whose segment already replayed in the prefix) re-runs fully.
          if (slot.warm != nullptr && slot.warm->tail_safe(faults)) {
            return sim::run_job_from(*slot.warm, &faults);
          }
        }
        sim::SimJob full = job;
        full.faults = &faults;
        return sim::run_job(full, assembled);
      });
  if (!host_options.out_path.empty()) {
    runtime::write_artifact_file(host_options.out_path, artifact);
  }

  // Classification walks every (site, trial) record.
  struct SiteTally {
    unsigned trials = 0, detected = 0, masked = 0, silent = 0;
    Summary latency_us;
  };
  std::vector<SiteTally> tally(num_sites);
  bool silent_corruption = false;
  for (const auto& record : artifact.runs) {
    const auto& run = record.result;
    SiteTally& site = tally[record.index / trials_per_site];
    ++site.trials;
    switch (sim::classify_fault_outcome(clean, run)) {
      case sim::FaultVerdict::kDetected:
        ++site.detected;
        site.latency_us.add(cycles_to_ns(run.first_error->detected_at,
                                         config.main_core.freq_mhz) /
                            1000.0);
        break;
      case sim::FaultVerdict::kMasked:
        ++site.masked;
        break;
      case sim::FaultVerdict::kSilent:
        ++site.silent;
        silent_corruption = true;
        break;
    }
  }

  std::printf("%-30s %8s %8s %8s %8s %12s\n", "site", "trials", "detect",
              "masked", "silent", "mean_lat_us");
  for (std::size_t s = 0; s < num_sites; ++s) {
    std::printf("%-30s %8u %8u %8u %8u %12.1f\n", sites[s].label,
                tally[s].trials, tally[s].detected, tally[s].masked,
                tally[s].silent,
                tally[s].latency_us.count() > 0 ? tally[s].latency_us.mean()
                                                : 0.0);
  }

  std::printf("\ncampaign total: %llu runs, %llu raised a detection\n",
              static_cast<unsigned long long>(artifact.aggregate.runs),
              static_cast<unsigned long long>(
                  artifact.aggregate.errors_detected));
  std::printf("no-silent-corruption contract: %s\n",
              silent_corruption ? "VIOLATED (bug!)" : "held");
  return silent_corruption ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // An unwritable --out path should end as a readable error, not
    // std::terminate.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
