// Tests for the §VIII extension: rollback recovery from detected errors
// via the write-ahead undo log (core/recovery.h).
#include <gtest/gtest.h>

#include "core/recovery.h"
#include "sim/checked_system.h"

namespace paradet::core {
namespace {

constexpr const char* kProgram = R"(
_start:
  li   t0, 400
  la   t1, data
  li   t2, 1
loop:
  ld   t3, 0(t1)
  add  t3, t3, t2
  sd   t3, 0(t1)
  addi t1, t1, 8
  andi t1, t1, 4095
  la   a0, data
  or   t1, t1, a0
  addi t2, t2, 1
  bne  t2, t0, loop
  # fold the data window into the checksum
  la   t1, data
  li   t0, 512
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

TEST(UndoLogTest, RollbackReversesNewestFirst) {
  arch::SparseMemory memory;
  UndoLog log;
  // Two stores to the same address in different segments.
  log.record(0, 0x1000, /*old=*/0, 8);
  memory.write(0x1000, 111, 8);
  log.record(1, 0x1000, /*old=*/111, 8);
  memory.write(0x1000, 222, 8);
  // Rolling back from segment 1 restores 111; from 0 restores the origin.
  EXPECT_EQ(log.rollback(memory, 1), 1u);
  EXPECT_EQ(memory.read(0x1000, 8), 111u);
  EXPECT_EQ(log.rollback(memory, 0), 2u);
  EXPECT_EQ(memory.read(0x1000, 8), 0u);
}

TEST(UndoLogTest, DiscardDropsValidatedSegments) {
  UndoLog log;
  log.record(0, 0x10, 1, 8);
  log.record(1, 0x20, 2, 8);
  log.record(2, 0x30, 3, 8);
  log.discard_below(2);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].segment_ordinal, 2u);
}

/// The checked Table I system over 50,000 instructions.
sim::SimJob checked_job() {
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = 50000;
  return job;
}

TEST(Recovery, UndoDataDiscardedAsChecksValidate) {
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);
  sim::LoadedProgram program = sim::load_program(assembled);
  sim::SimJob job = checked_job();
  UndoLog undo;
  job.undo_log = &undo;
  const auto result = sim::run_job(job, program);
  ASSERT_FALSE(result.error_detected);
  // All segments validated: only the final (drain) segment's records may
  // linger, bounded by one segment's stores.
  EXPECT_LT(undo.size(), 600u);
}

TEST(Recovery, TransientFaultFullyCorrected) {
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);

  // Golden result for comparison.
  sim::SimJob job = checked_job();
  const auto clean = sim::run_job(job, assembled);
  ASSERT_FALSE(clean.error_detected);

  // Faulty run with undo logging: a store-value strike mid-run.
  FaultInjector faults;
  FaultSpec spec;
  spec.site = FaultSite::kMainStoreValue;
  spec.at_seq = 1500;
  spec.bit = 9;
  faults.add(spec);
  sim::LoadedProgram program = sim::load_program(assembled);
  UndoLog undo;
  job.faults = &faults;
  job.undo_log = &undo;
  const auto faulty = sim::run_job(job, program);
  ASSERT_TRUE(faulty.error_detected);
  ASSERT_TRUE(faulty.recovery_checkpoint.has_value());
  ASSERT_TRUE(faulty.first_error.has_value());

  // Roll back and replay: memory returns to the failing segment's start;
  // the transient does not recur, so the replay completes and the final
  // architectural state matches the clean run exactly.
  const auto outcome = recover_and_replay(
      program.memory, undo, faulty.first_error->segment_ordinal,
      *faulty.recovery_checkpoint, 100000, &program.predecoded());
  EXPECT_TRUE(outcome.recovered);
  EXPECT_GT(outcome.stores_rolled_back, 0u);
  EXPECT_EQ(arch::first_register_difference(outcome.final_state,
                                            clean.final_state),
            -1);
  EXPECT_EQ(outcome.final_state.pc, clean.final_state.pc);
  // The corrected memory result matches too.
  EXPECT_EQ(program.memory.read(0x100000, 8),
            clean.final_state.x[20 /* s4 */]);
}

TEST(Recovery, RegisterFaultAlsoCorrected) {
  const auto assembled = isa::assemble(kProgram);
  ASSERT_TRUE(assembled.ok);
  sim::SimJob job = checked_job();
  const auto clean = sim::run_job(job, assembled);

  FaultInjector faults;
  FaultSpec spec;
  spec.site = FaultSite::kMainArchReg;
  spec.at_seq = 2000;
  spec.reg = 6;  // t1: live address base.
  spec.bit = 5;
  faults.add(spec);
  sim::LoadedProgram program = sim::load_program(assembled);
  UndoLog undo;
  job.faults = &faults;
  job.undo_log = &undo;
  const auto faulty = sim::run_job(job, program);
  ASSERT_TRUE(faulty.error_detected);
  ASSERT_TRUE(faulty.recovery_checkpoint.has_value());

  const auto outcome = recover_and_replay(
      program.memory, undo, faulty.first_error->segment_ordinal,
      *faulty.recovery_checkpoint, 100000, &program.predecoded());
  EXPECT_TRUE(outcome.recovered);
  EXPECT_EQ(arch::first_register_difference(outcome.final_state,
                                            clean.final_state),
            -1);
}

}  // namespace
}  // namespace paradet::core
