// Warm-state forking (sim/warm_state.h): a fault campaign simulates the
// fault-free prefix once, captures the complete machine state, and forks
// every injected tail off the shared copy-on-write snapshot. The whole
// point is byte-identity — a forked tail must produce the same RunResult,
// down to the last counter, as re-simulating the run from cold — so these
// tests compare canonical JSON encodings with string equality, not field
// spot-checks.
//
// Also here: the memory-aware silent-corruption classification. A fault
// that corrupts only memory (a store-value strike whose target is never
// reloaded) passes every register comparison; classify_fault_outcome must
// still call it silent data corruption, via RunResult::mem_digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/state.h"
#include "core/recovery.h"
#include "isa/assembler.h"
#include "runtime/campaign.h"
#include "runtime/parallel_runner.h"
#include "runtime/serialize.h"
#include "sim/checked_system.h"

namespace paradet::sim {
namespace {

using core::FaultInjector;
using core::FaultSite;
using core::FaultSpec;

// Same kernel shape as test_fault_coverage: a compute loop whose results
// are read back at the end, so corruption has somewhere to go.
constexpr const char* kProgram = R"(
_start:
  li   t0, 500
  la   t1, data
  li   t2, 1
loop:
  ld   t3, 0(t1)
  add  t3, t3, t2
  mul  t4, t3, t2
  sd   t4, 0(t1)
  addi t1, t1, 8
  andi t1, t1, 8191
  la   a0, data
  or   t1, t1, a0
  addi t2, t2, 1
  bne  t2, t0, loop
  halt
.org 0x200000
data:
)";

constexpr std::uint64_t kBudget = 50'000;

isa::Assembled assemble_program() {
  auto assembled = isa::assemble(kProgram);
  EXPECT_TRUE(assembled.ok);
  return assembled;
}

SimJob checked_job(unsigned checker_threads) {
  SimJob job;
  job.config = SystemConfig::standard();
  job.mode = SimMode::kChecked;
  job.max_instructions = kBudget;
  job.checker = checker_threads;
  return job;
}

FaultInjector late_store_fault(UopSeq at_seq, unsigned bit) {
  FaultInjector faults;
  FaultSpec spec;
  spec.site = FaultSite::kMainStoreValue;
  spec.at_seq = at_seq;
  spec.bit = bit;
  faults.add(spec);
  return faults;
}

// --- Byte-identity of forked tails ----------------------------------------

TEST(WarmState, CleanTailIsByteIdenticalToFullRun) {
  const auto assembled = assemble_program();
  for (const unsigned threads : {0u, 4u}) {
    const SimJob job = checked_job(threads);
    const RunResult full = run_job(job, assembled);
    const auto warm = capture_warm_state(job, assembled, /*prefix_uops=*/3000);
    ASSERT_NE(warm, nullptr);
    EXPECT_GE(warm->uops, 3000u);
    const RunResult forked = run_job_from(*warm);
    EXPECT_EQ(runtime::to_json(forked), runtime::to_json(full))
        << "checker_threads=" << threads;
  }
}

TEST(WarmState, ForkedFaultTailsAreByteIdenticalToFullRuns) {
  const auto assembled = assemble_program();
  const struct {
    FaultSite site;
    UopSeq at_seq;
    unsigned reg, bit;
  } cases[] = {
      {FaultSite::kMainStoreValue, 4201, 0, 13},
      {FaultSite::kMainArchReg, 3900, 6, 5},
      {FaultSite::kMainLoadValuePostLfu, 4400, 0, 9},
      {FaultSite::kMainAluStuckAt, 5000, 0, 7},
  };
  for (const unsigned threads : {0u, 4u}) {
    const SimJob job = checked_job(threads);
    const auto warm = capture_warm_state(job, assembled, /*prefix_uops=*/3000);
    ASSERT_NE(warm, nullptr);
    for (const auto& c : cases) {
      FaultInjector full_faults;
      FaultSpec spec;
      spec.site = c.site;
      spec.at_seq = c.at_seq;
      spec.reg = c.reg;
      spec.bit = c.bit;
      spec.alu_index = 1;
      spec.stuck_value = true;
      full_faults.add(spec);
      FaultInjector fork_faults = full_faults;

      SimJob faulty_job = job;
      faulty_job.faults = &full_faults;
      const RunResult full = run_job(faulty_job, assembled);

      ASSERT_TRUE(warm->tail_safe(fork_faults));
      const RunResult forked = run_job_from(*warm, &fork_faults);
      EXPECT_EQ(runtime::to_json(forked), runtime::to_json(full))
          << "site " << static_cast<int>(c.site) << " threads " << threads;
    }
  }
}

TEST(WarmState, OneWarmStateServesManyConcurrentTails) {
  // The campaign use case: every strike in an injection window forks the
  // same frozen snapshot, concurrently. Run under TSan in CI.
  const auto assembled = assemble_program();
  const SimJob job = checked_job(/*checker_threads=*/2);
  const auto warm = capture_warm_state(job, assembled, /*prefix_uops=*/3000);
  ASSERT_NE(warm, nullptr);

  constexpr unsigned kTails = 6;
  std::vector<std::string> forked(kTails), full(kTails);
  std::vector<std::thread> threads;
  threads.reserve(kTails);
  for (unsigned t = 0; t < kTails; ++t) {
    threads.emplace_back([&, t] {
      FaultInjector faults = late_store_fault(3100 + 237 * t, t % 64);
      forked[t] = runtime::to_json(run_job_from(*warm, &faults));
    });
  }
  for (auto& thread : threads) thread.join();
  for (unsigned t = 0; t < kTails; ++t) {
    FaultInjector faults = late_store_fault(3100 + 237 * t, t % 64);
    SimJob faulty_job = job;
    faulty_job.faults = &faults;
    full[t] = runtime::to_json(run_job(faulty_job, assembled));
    EXPECT_EQ(forked[t], full[t]) << "tail " << t;
  }
}

// --- Capture edge cases ---------------------------------------------------

TEST(WarmState, CapturePastProgramEndReturnsNull) {
  const auto assembled = assemble_program();
  const auto warm =
      capture_warm_state(checked_job(0), assembled, /*prefix_uops=*/~0ull);
  EXPECT_EQ(warm, nullptr);
}

TEST(WarmState, CaptureAtZeroIsAFullRunViaTheWarmPath) {
  const auto assembled = assemble_program();
  const SimJob job = checked_job(0);
  const auto warm = capture_warm_state(job, assembled, /*prefix_uops=*/0);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->uops, 0u);
  EXPECT_EQ(runtime::to_json(run_job_from(*warm)),
            runtime::to_json(run_job(job, assembled)));
}

TEST(WarmState, UndoLogCapturesAreRejected) {
  const auto assembled = assemble_program();
  SimJob job = checked_job(0);
  core::UndoLog undo;
  job.undo_log = &undo;
  EXPECT_THROW(capture_warm_state(job, assembled, 1000), std::logic_error);
}

// --- tail_safe ------------------------------------------------------------

TEST(WarmState, TailSafeRejectsFaultsThatFireInsideThePrefix) {
  const auto assembled = assemble_program();
  const auto warm = capture_warm_state(checked_job(0), assembled, 3000);
  ASSERT_NE(warm, nullptr);

  // A strike before the capture point would have fired during the (fault-
  // free) prefix: forking would silently drop it.
  EXPECT_FALSE(warm->tail_safe(late_store_fault(100, 3)));
  EXPECT_FALSE(warm->tail_safe(late_store_fault(warm->uops - 1, 3)));
  EXPECT_TRUE(warm->tail_safe(late_store_fault(warm->uops, 3)));

  // Checkpoint strikes key on checkpoint index, not uop seq.
  FaultInjector ckpt;
  FaultSpec spec;
  spec.site = FaultSite::kCheckpointReg;
  spec.reg = 28;
  spec.checkpoint_index = 0;
  ckpt.add(spec);
  EXPECT_FALSE(warm->tail_safe(ckpt));
  FaultInjector ckpt_late;
  spec.checkpoint_index = warm->checkpoint_index;
  ckpt_late.add(spec);
  EXPECT_TRUE(warm->tail_safe(ckpt_late));

  // Checker-side strikes key on segment ordinal.
  FaultInjector checker;
  FaultSpec cspec;
  cspec.site = FaultSite::kCheckerArchReg;
  cspec.reg = 7;
  cspec.segment_ordinal = warm->produced_segments();
  checker.add(cspec);
  EXPECT_TRUE(warm->tail_safe(checker));
  if (warm->produced_segments() > 0) {
    FaultInjector checker_early;
    cspec.segment_ordinal = 0;
    checker_early.add(cspec);
    EXPECT_FALSE(warm->tail_safe(checker_early));
  }

  // A multi-spec injector is only safe when every spec is.
  FaultInjector mixed = late_store_fault(warm->uops + 500, 3);
  FaultSpec early;
  early.site = FaultSite::kMainStoreValue;
  early.at_seq = 10;
  early.bit = 1;
  mixed.add(early);
  EXPECT_FALSE(warm->tail_safe(mixed));
}

// --- Campaign-level equivalence -------------------------------------------

// A miniature of bench/coverage_campaign's fork integration: the artifact
// produced with bucketed warm-state forking must be byte-identical to the
// unforked artifact, at any --jobs level.
std::string mini_campaign_artifact(const isa::Assembled& assembled,
                                   const RunResult& clean, bool use_fork,
                                   unsigned jobs) {
  const SimJob job = checked_job(/*checker_threads=*/0);
  constexpr std::size_t kBuckets = 2;
  struct WarmSlot {
    std::once_flag once;
    std::unique_ptr<WarmState> warm;
  };
  std::vector<std::unique_ptr<WarmSlot>> pool;
  if (use_fork) {
    pool.resize(kBuckets);
    for (auto& slot : pool) slot = std::make_unique<WarmSlot>();
  }
  const FaultSite sites[] = {FaultSite::kMainStoreValue,
                             FaultSite::kMainArchReg};
  const runtime::Campaign campaign(/*tasks=*/8, /*seed=*/0xBEEF);
  const runtime::ParallelRunner runner(jobs);
  const auto artifact = campaign.run(
      runner, [&](std::size_t i, std::uint64_t task_seed) {
        FaultInjector faults;
        FaultSpec spec;
        spec.site = sites[i % 2];
        spec.at_seq = 1000 + task_seed % (clean.uops - 2000);
        spec.reg = 6;
        spec.bit = static_cast<unsigned>(task_seed % 64);
        faults.add(spec);
        if (use_fork) {
          const std::uint64_t width = clean.uops / kBuckets;
          const std::size_t bucket =
              std::min<std::size_t>(spec.at_seq / width, kBuckets - 1);
          WarmSlot& slot = *pool[bucket];
          std::call_once(slot.once, [&] {
            slot.warm = capture_warm_state(job, assembled, bucket * width);
          });
          if (slot.warm != nullptr && slot.warm->tail_safe(faults)) {
            return run_job_from(*slot.warm, &faults);
          }
        }
        SimJob full = job;
        full.faults = &faults;
        return run_job(full, assembled);
      });
  return runtime::to_json(artifact);
}

TEST(WarmState, ForkedCampaignArtifactMatchesUnforkedAtAnyJobsLevel) {
  const auto assembled = assemble_program();
  const RunResult clean = run_job(checked_job(0), assembled);
  const std::string reference =
      mini_campaign_artifact(assembled, clean, /*use_fork=*/false, /*jobs=*/1);
  EXPECT_EQ(mini_campaign_artifact(assembled, clean, false, 8), reference);
  EXPECT_EQ(mini_campaign_artifact(assembled, clean, true, 1), reference);
  EXPECT_EQ(mini_campaign_artifact(assembled, clean, true, 8), reference);
}

// --- Memory-aware silent-corruption classification ------------------------

// A kernel that writes a result buffer and never reads it back: the only
// trace a store-value strike leaves is in memory.
constexpr const char* kWriteOnlyProgram = R"(
_start:
  li   t0, 200
  la   t1, data
loop:
  sd   t0, 0(t1)
  addi t1, t1, 8
  addi t0, t0, -1
  bnez t0, loop
  halt
.org 0x10000
data:
)";

TEST(FaultClassification, MemoryOnlyCorruptionIsSilentNotMasked) {
  // The bug this catches: a masked verdict from register+pc comparison
  // alone. With detection disabled (no checker to flag the strike), a
  // corrupted store to never-reloaded memory leaves every register and
  // the pc identical to the clean run — only the final-memory digest
  // differs, and only the digest-aware classifier calls it silent.
  auto assembled = isa::assemble(kWriteOnlyProgram);
  ASSERT_TRUE(assembled.ok);
  SimJob job;
  job.config = SystemConfig::standard();
  job.mode = SimMode::kBaseline;  // no detection: the strike must land SDC.
  job.max_instructions = kBudget;
  const RunResult clean = run_job(job, assembled);

  // The uop seq of a store depends on cracking; probe a small window until
  // the strike lands (the window spans several loop iterations, each with
  // exactly one store).
  bool landed = false;
  for (UopSeq seq = 100; seq < 120 && !landed; ++seq) {
    FaultInjector faults = late_store_fault(seq, 17);
    SimJob faulty_job = job;
    faulty_job.faults = &faults;
    const RunResult faulty = run_job(faulty_job, assembled);
    if (faulty.mem_digest == clean.mem_digest) continue;
    landed = true;
    EXPECT_FALSE(faulty.error_detected);
    // Register/pc/trap comparison alone sees nothing...
    EXPECT_EQ(arch::first_register_difference(faulty.final_state,
                                              clean.final_state),
              -1);
    EXPECT_EQ(faulty.final_state.pc, clean.final_state.pc);
    EXPECT_EQ(faulty.exit_trap, clean.exit_trap);
    // ...but the classification is silent corruption, not masked.
    EXPECT_EQ(classify_fault_outcome(clean, faulty), FaultVerdict::kSilent);
  }
  EXPECT_TRUE(landed) << "no probed seq hit a store; widen the window";
}

TEST(FaultClassification, DetectedAndMaskedVerdictsStillClassify) {
  const auto assembled = assemble_program();
  const SimJob job = checked_job(0);
  const RunResult clean = run_job(job, assembled);
  EXPECT_EQ(classify_fault_outcome(clean, clean), FaultVerdict::kMasked);

  FaultInjector faults = late_store_fault(4201, 13);
  SimJob faulty_job = job;
  faulty_job.faults = &faults;
  const RunResult faulty = run_job(faulty_job, assembled);
  ASSERT_TRUE(faulty.error_detected);
  EXPECT_EQ(classify_fault_outcome(clean, faulty), FaultVerdict::kDetected);

  EXPECT_EQ(fault_verdict_name(FaultVerdict::kDetected), "detected");
  EXPECT_EQ(fault_verdict_name(FaultVerdict::kMasked), "masked");
  EXPECT_EQ(fault_verdict_name(FaultVerdict::kSilent), "silent");
}

}  // namespace
}  // namespace paradet::sim
