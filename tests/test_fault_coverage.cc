// End-to-end fault-injection coverage: the detection matrix the paper's
// scheme promises (§IV, §IV-C, §IV-I). For every modelled fault site we
// assert either detection or provable harmlessness -- the no-silent-data-
// corruption contract -- and for the sites inside the sphere of coverage
// we assert hard detection.
#include <gtest/gtest.h>

#include "arch/interpreter.h"
#include "sim/checked_system.h"

namespace paradet::sim {
namespace {

using core::FaultInjector;
using core::FaultSite;
using core::FaultSpec;

/// Every run here: the checked Table I system over 50,000 instructions,
/// with `faults` injected (null: fault-free).
SimJob checked_job(FaultInjector* faults) {
  SimJob job;
  job.config = SystemConfig::standard();
  job.mode = SimMode::kChecked;
  job.max_instructions = 50000;
  job.faults = faults;
  return job;
}

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
  # Read back the whole data window so memory corruption becomes
  # register-visible (for the no-SDC equivalence checks).
  la   t1, data
  li   t0, 1024
  li   s4, 0
sum:
  ld   t3, 0(t1)
  add  s4, s4, t3
  addi t1, t1, 8
  addi t0, t0, -1
  bnez t0, sum
  la   t5, result
  sd   s4, 0(t5)
  halt
.org 0x100000
result:
.org 0x200000
data:
)";

// Micro-op layout of kProgram: 4 prologue uops, then 11 uops per loop
// iteration -- loads at seq 4+11k, stores at seq 7+11k. Faults must
// trigger on the right micro-op kind.
constexpr UopSeq load_seq(unsigned k) { return 4 + 11 * k; }
constexpr UopSeq store_seq(unsigned k) { return 7 + 11 * k; }

struct FaultCase {
  const char* name;
  FaultSite site;
  UopSeq at_seq;
  unsigned reg;
  unsigned bit;
  bool must_detect;  ///< inside the sphere of coverage.
};

class FaultMatrix : public ::testing::TestWithParam<FaultCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sites, FaultMatrix,
    ::testing::Values(
        // Store value/address corruption escapes to memory and the log;
        // the checker recomputes the good value: always detected.
        FaultCase{"store_value", FaultSite::kMainStoreValue, store_seq(181),
                  0, 13, true},
        FaultCase{"store_addr", FaultSite::kMainStoreAddr, store_seq(181), 0,
                  5, true},
        // A load corrupted after LFU duplication feeds wrong data to the
        // main pipeline; the checker gets the good copy: detected once it
        // reaches a store or checkpoint.
        FaultCase{"load_post_lfu", FaultSite::kMainLoadValuePostLfu,
                  load_seq(181), 0, 13, true},
        // Register-file strikes on live registers reach stores or the
        // next checkpoint. Bit 5 survives the loop's address masking.
        FaultCase{"arch_reg_live", FaultSite::kMainArchReg, 2000, 6, 5,
                  true},
        // Checker-side fault: over-detection, still reported (§IV-I).
        FaultCase{"checker_reg", FaultSite::kCheckerArchReg, 0, 7, 13,
                  true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(FaultMatrix, DetectedOrHarmless) {
  const FaultCase& fault_case = GetParam();
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok) << assembled.errors[0];

  const RunResult clean = run_job(checked_job(nullptr), assembled);
  ASSERT_FALSE(clean.error_detected);

  FaultInjector faults;
  FaultSpec spec;
  spec.site = fault_case.site;
  spec.at_seq = fault_case.at_seq;
  spec.reg = fault_case.reg;
  spec.bit = fault_case.bit;
  spec.segment_ordinal = 3;
  spec.checker_local_index = 17;
  faults.add(spec);

  const RunResult faulty = run_job(checked_job(&faults), assembled);

  if (fault_case.must_detect) {
    EXPECT_TRUE(faulty.error_detected) << fault_case.name;
    ASSERT_TRUE(faulty.first_error.has_value());
    EXPECT_NE(faulty.first_error->kind, core::DetectionKind::kNone);
  }
  // No-SDC contract: undetected implies architecturally identical result.
  if (!faulty.error_detected) {
    EXPECT_EQ(arch::first_register_difference(faulty.final_state,
                                              clean.final_state),
              -1);
  }
}

TEST(FaultCoverage, StoreFaultAtManySeqsAlwaysDetected) {
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);
  for (const UopSeq seq : {100u, 777u, 1500u, 3000u, 4321u}) {
    FaultInjector faults;
    FaultSpec spec;
    spec.site = FaultSite::kMainStoreValue;
    spec.at_seq = seq;
    spec.bit = seq % 64;
    faults.add(spec);
    const RunResult result = run_job(checked_job(&faults), assembled);
    // The chosen seqs might not be stores; detection fires only when the
    // fault actually triggered on a store. Verify no-SDC always, and
    // detection when the store checksum changed.
    if (!result.error_detected) {
      const RunResult clean = run_job(checked_job(nullptr), assembled);
      EXPECT_EQ(arch::first_register_difference(result.final_state,
                                                clean.final_state),
                -1)
          << "seq " << seq;
    }
  }
}

TEST(FaultCoverage, PreLfuLoadFaultIsOutsideSphereOfCoverage) {
  // §IV-A/§IV-C: corruption before LFU duplication models a cache-side
  // error -- the ECC domain. Both copies inherit it, the checker agrees
  // with the main core, and the scheme (correctly) stays silent. This
  // DOCUMENTS the boundary, it is not a bug.
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);
  FaultInjector faults;
  FaultSpec spec;
  spec.site = FaultSite::kMainLoadValuePreLfu;
  spec.at_seq = load_seq(181);
  spec.bit = 5;
  faults.add(spec);
  const RunResult result = run_job(checked_job(&faults), assembled);
  EXPECT_FALSE(result.error_detected);
}

TEST(FaultCoverage, LfuClosesTheWindowOfVulnerability) {
  // The paper's §IV-C argument, as an ablation. With the LFU, a post-
  // duplication load corruption is detected. Without it (naive commit-
  // time forwarding), the corrupted value reaches the log too: the
  // checker sees what the main core saw, detects nothing, and the
  // program's output is silently corrupted.
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);

  FaultInjector faults;
  FaultSpec spec;
  spec.site = FaultSite::kMainLoadValuePostLfu;
  spec.at_seq = load_seq(181);
  spec.bit = 3;
  faults.add(spec);

  const RunResult protected_run = run_job(checked_job(&faults), assembled);
  EXPECT_TRUE(protected_run.error_detected);

  SimJob naive = checked_job(&faults);
  naive.config.detection.load_forwarding_unit = false;
  const RunResult naive_run = run_job(naive, assembled);
  EXPECT_FALSE(naive_run.error_detected);
  // And the silent corruption is real: outputs differ from the clean run.
  naive.faults = nullptr;
  const RunResult clean = run_job(naive, assembled);
  EXPECT_NE(arch::first_register_difference(naive_run.final_state,
                                            clean.final_state),
            -1);
}

TEST(FaultCoverage, CheckpointCorruptionDetectedEvenIfDead) {
  // §IV-I over-detection: flip a register inside a checkpoint that no
  // later code reads. Liveness is unknowable at validation time, so the
  // scheme must report.
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);
  FaultInjector faults;
  FaultSpec spec;
  spec.site = FaultSite::kCheckpointReg;
  spec.checkpoint_index = 2;
  spec.reg = 28;  // t3 is rewritten every iteration; mid-segment it's live
  spec.bit = 60;  // in the checkpoint image regardless.
  faults.add(spec);
  const RunResult result = run_job(checked_job(&faults), assembled);
  EXPECT_TRUE(result.error_detected);
  ASSERT_TRUE(result.first_error.has_value());
  EXPECT_EQ(result.first_error->kind, core::DetectionKind::kRegisterMismatch);
}

TEST(FaultCoverage, HardAluFaultDetectedRepeatedly) {
  // A stuck bit in one integer ALU corrupts many results from the trigger
  // point onwards; heterogeneous checker cores (different silicon) catch
  // it. This is the hard-fault coverage RMT cannot provide (§II-B).
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);
  FaultInjector faults;
  FaultSpec spec;
  spec.site = FaultSite::kMainAluStuckAt;
  spec.at_seq = 1000;
  spec.alu_index = 1;
  spec.bit = 7;
  spec.stuck_value = true;
  faults.add(spec);
  const RunResult result = run_job(checked_job(&faults), assembled);
  EXPECT_TRUE(result.error_detected);
}

TEST(FaultCoverage, FirstErrorOrderingUnderTwoFaults) {
  // Strong induction (§IV): with faults in two different segments, the
  // reported first error must come from the earlier one.
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);
  FaultInjector faults;
  FaultSpec early;
  early.site = FaultSite::kMainStoreValue;
  early.at_seq = store_seq(90);
  early.bit = 2;
  faults.add(early);
  FaultSpec late;
  late.site = FaultSite::kMainStoreValue;
  late.at_seq = store_seq(360);
  late.bit = 9;
  faults.add(late);
  const RunResult result = run_job(checked_job(&faults), assembled);
  ASSERT_TRUE(result.error_detected);
  // The reported first error must come from the earlier fault.
  EXPECT_LE(result.first_error->around_seq, store_seq(90) + 11);
}

TEST(FaultCoverage, ErrorsDetectedWithinBoundedDelay) {
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);
  FaultInjector faults;
  FaultSpec spec;
  spec.site = FaultSite::kMainStoreValue;
  spec.at_seq = store_seq(181);
  spec.bit = 1;
  faults.add(spec);
  const RunResult result = run_job(checked_job(&faults), assembled);
  ASSERT_TRUE(result.error_detected);
  // Detection happens while the program still runs or shortly after:
  // within the all-checked horizon.
  EXPECT_LE(result.first_error->detected_at, result.all_checked_cycle);
  EXPECT_GT(result.first_error->detected_at, 0u);
}

}  // namespace
}  // namespace paradet::sim
