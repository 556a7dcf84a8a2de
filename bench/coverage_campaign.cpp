// Fault-injection campaign (validation experiment, not a paper figure):
// sweeps random transient faults over the modelled sites on a subset of
// the suite and reports detection / masked / silent-corruption rates.
// The scheme's contract: zero silent corruptions for in-sphere faults;
// masked (architecturally dead) faults may go undetected; checker-side
// faults are over-detected (§IV-I).
//
// Runs as one runtime::Campaign over every (site x workload x trial)
// triple: each task derives its fault spec from an order-independent
// per-task seed, so the reported rates are identical at any --jobs level.
//
// By default (--fork=on) the fault-free prefix of each strike is not
// re-simulated: the campaign captures one warm state per (kernel,
// injection-window) bucket and forks every strike in that window off the
// shared copy-on-write snapshot (sim::capture_warm_state /
// sim::run_job_from). Faults that cannot be proven to trigger after the
// capture point — early checkpoint or checker-segment strikes — fall back
// to a full run, so the artifact stays byte-identical to --fork=off.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "bench_util.h"
#include "common/rng.h"
#include "runtime/assembly_cache.h"
#include "runtime/campaign.h"

namespace {

int run(int argc, char** argv) {
  using namespace paradet;
  auto options = bench::Options::parse(argc, argv, /*campaign=*/true,
                                       {"--fork=on|off"});
  const CheckerExec checker = options.checker_exec();
  if (options.scale == 1.0) options.scale = 0.1;  // campaign is many runs.
  bool use_fork = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fork=", 7) == 0) {
      use_fork = std::strcmp(argv[i] + 7, "on") == 0;
      if (!use_fork && std::strcmp(argv[i] + 7, "off") != 0) {
        std::fprintf(stderr, "invalid argument '%s': expected --fork=on|off\n",
                     argv[i]);
        return 2;
      }
    }
  }
  bench::print_header(
      "Fault-injection campaign: detection coverage by site",
      "in-sphere faults: detected or architecturally masked; zero silent "
      "corruption");

  const struct {
    core::FaultSite site;
    const char* name;
  } sites[] = {
      {core::FaultSite::kMainArchReg, "main-arch-reg"},
      {core::FaultSite::kMainLoadValuePostLfu, "load-post-lfu"},
      {core::FaultSite::kMainStoreValue, "store-value"},
      {core::FaultSite::kMainStoreAddr, "store-addr"},
      {core::FaultSite::kCheckpointReg, "checkpoint-reg"},
      {core::FaultSite::kCheckerArchReg, "checker-reg"},
      {core::FaultSite::kMainAluStuckAt, "alu-stuck-at"},
  };
  constexpr unsigned kTrialsPerCell = 6;
  const SystemConfig config = SystemConfig::standard();
  const auto runner = options.runner();

  // Three representative kernels keep the campaign fast.
  std::vector<workloads::Workload> kernels;
  for (auto& workload : bench::suite(options)) {
    if (workload.name == "randacc" || workload.name == "freqmine" ||
        workload.name == "facesim") {
      kernels.push_back(std::move(workload));
    }
  }
  if (kernels.empty()) {
    std::fprintf(stderr,
                 "--benchmark=%s selects none of the campaign kernels "
                 "(randacc/freqmine/facesim); nothing to run\n",
                 options.only.c_str());
    return 1;
  }

  // The job every run below simulates, fault-free or struck.
  sim::SimJob job;
  job.config = config;
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = checker;

  // Stage 1: one clean (fault-free) reference run per kernel, in parallel,
  // with the immutable assembled images shared from the runtime cache
  // (fault tasks below reuse them instead of re-assembling).
  struct Reference {
    runtime::AssemblyCache::Image assembled;
    sim::RunResult clean;
  };
  const auto references = runner.map(kernels.size(), [&](std::size_t k) {
    Reference ref;
    ref.assembled = runtime::AssemblyCache::instance().get(kernels[k]);
    ref.clean = sim::run_job(job, *ref.assembled);
    return ref;
  });

  // Warm-state pool: one lazily-captured prefix per (kernel, injection
  // window). Tasks race to the capture under call_once; every strike in
  // the window then forks the same frozen snapshot.
  constexpr std::size_t kForkBuckets = 4;
  struct WarmSlot {
    std::once_flag once;
    std::unique_ptr<sim::WarmState> warm;  // null: program ended early.
  };
  std::vector<std::unique_ptr<WarmSlot>> warm_pool;
  if (use_fork) {
    warm_pool.resize(kernels.size() * kForkBuckets);
    for (auto& slot : warm_pool) slot = std::make_unique<WarmSlot>();
  }

  // Stage 2: the campaign proper. Task index encodes (site, kernel, trial).
  const std::size_t num_sites = std::size(sites);
  const runtime::Campaign campaign(num_sites * kernels.size() * kTrialsPerCell,
                                   /*seed=*/0xC0FFEE);
  const auto artifact = campaign.run(
      runner, [&](std::size_t i, std::uint64_t task_seed) {
        const std::size_t site_index = i / (kernels.size() * kTrialsPerCell);
        const std::size_t kernel_index = (i / kTrialsPerCell) % kernels.size();
        const auto& clean = references[kernel_index].clean;

        SplitMix64 rng(task_seed);
        core::FaultInjector faults;
        core::FaultSpec spec;
        spec.site = sites[site_index].site;
        spec.at_seq = 1000 + rng.next_below(
                                 clean.uops > 2000 ? clean.uops - 2000 : 1);
        spec.reg = 5 + static_cast<unsigned>(rng.next_below(25));
        spec.bit = static_cast<unsigned>(rng.next_below(64));
        spec.checkpoint_index = 1 + rng.next_below(8);
        spec.segment_ordinal = rng.next_below(8);
        spec.checker_local_index = rng.next_below(64);
        spec.alu_index =
            static_cast<unsigned>(rng.next_below(config.main_core.int_alus));
        faults.add(spec);

        if (use_fork) {
          const std::uint64_t width =
              std::max<std::uint64_t>(clean.uops / kForkBuckets, 1);
          const std::size_t bucket = std::min<std::size_t>(
              static_cast<std::size_t>(spec.at_seq / width), kForkBuckets - 1);
          WarmSlot& slot = *warm_pool[kernel_index * kForkBuckets + bucket];
          std::call_once(slot.once, [&] {
            slot.warm = sim::capture_warm_state(
                job, *references[kernel_index].assembled, bucket * width);
          });
          if (slot.warm != nullptr && slot.warm->tail_safe(faults)) {
            return sim::run_job_from(*slot.warm, &faults);
          }
        }
        sim::SimJob full = job;
        full.faults = &faults;
        return sim::run_job(full, *references[kernel_index].assembled);
      });
  options.write_out(artifact);

  // Classification against the clean reference is pure post-processing,
  // done in task order over every record. The
  // verdict compares registers, pc, exit trap *and* the final-memory
  // digest: a store-value strike whose target is never reloaded corrupts
  // only memory, and register comparison alone would count it as masked.
  struct SiteTally {
    unsigned detected = 0, masked = 0, silent = 0, trials = 0;
  };
  std::vector<SiteTally> tally(num_sites);
  bool contract_violated = false;
  for (const auto& record : artifact.runs) {
    const std::size_t site = record.index / (kernels.size() * kTrialsPerCell);
    const std::size_t kernel =
        (record.index / kTrialsPerCell) % kernels.size();
    const auto& clean = references[kernel].clean;
    ++tally[site].trials;
    switch (sim::classify_fault_outcome(clean, record.result)) {
      case sim::FaultVerdict::kDetected:
        ++tally[site].detected;
        break;
      case sim::FaultVerdict::kMasked:
        ++tally[site].masked;  // fault never reached architectural state.
        break;
      case sim::FaultVerdict::kSilent:
        ++tally[site].silent;  // contract violation!
        contract_violated = true;
        break;
    }
  }

  std::printf("%-16s %8s %9s %8s %9s\n", "site", "trials", "detected",
              "masked", "silent");
  for (std::size_t s = 0; s < num_sites; ++s) {
    std::printf("%-16s %8u %9u %8u %9u\n", sites[s].name, tally[s].trials,
                tally[s].detected, tally[s].masked, tally[s].silent);
  }

  std::printf("\ncontract (zero silent corruptions): %s\n",
              contract_violated ? "VIOLATED" : "HELD");
  return contract_violated ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}
