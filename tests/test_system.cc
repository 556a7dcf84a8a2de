// Integration tests for the full checked system: architectural
// equivalence with the golden interpreter, detection-side mechanics
// (seals, timeouts, interrupts, held termination), stall behaviour and
// the paper's headline invariants.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "arch/interpreter.h"
#include "common/hash.h"
#include "runtime/serialize.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace paradet::sim {
namespace {

/// Runs a program on the golden interpreter; returns the final state.
arch::ArchState golden_run(const isa::Assembled& assembled,
                           std::uint64_t max_instructions,
                           arch::Trap* trap_out = nullptr,
                           std::uint64_t* result_out = nullptr) {
  arch::SparseMemory memory;
  for (const auto& chunk : assembled.chunks) {
    memory.write_block(chunk.base, chunk.bytes);
  }
  std::uint64_t cycle = 0;
  arch::MemoryDataPort port(memory, cycle);
  arch::Machine machine(memory, port);
  arch::ArchState state;
  state.pc = assembled.entry;
  const arch::Trap trap = machine.run(state, max_instructions);
  if (trap_out != nullptr) *trap_out = trap;
  if (result_out != nullptr) {
    *result_out = memory.read(workloads::kResultAddr, 8);
  }
  return state;
}

/// A checked run of `config` up to `budget` instructions.
SimJob checked_job(const SystemConfig& config, std::uint64_t budget) {
  SimJob job;
  job.config = config;
  job.mode = SimMode::kChecked;
  job.max_instructions = budget;
  return job;
}

constexpr const char* kMixedProgram = R"(
_start:
  li   t0, 600
  la   t1, data
  li   t2, 0
  li   s2, 2654435761
loop:
  mul  t3, t2, s2
  srli t3, t3, 8
  andi t3, t3, 2040          # aligned offset in [0, 2040]
  add  t4, t1, t3
  ld   t5, 0(t4)
  add  t5, t5, t2
  sd   t5, 0(t4)
  ldp  a0, 0(t1)             # macro-op traffic
  stp  a0, 16(t1)
  addi t2, t2, 1
  bne  t2, t0, loop
  la   t6, result
  sd   t5, 0(t6)
  halt
.org 0x100000
result:
.org 0x200000
data:
)";

TEST(CheckedSystem, ArchitecturalEquivalenceWithGolden) {
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok) << assembled.errors[0];
  arch::Trap golden_trap;
  const arch::ArchState golden = golden_run(assembled, 50000, &golden_trap);
  ASSERT_EQ(golden_trap, arch::Trap::kHalt);

  SimJob job = checked_job(SystemConfig::standard(), 50000);
  const RunResult checked = run_job(job, assembled);
  EXPECT_EQ(checked.exit_trap, arch::Trap::kHalt);
  EXPECT_FALSE(checked.error_detected);
  EXPECT_EQ(arch::first_register_difference(checked.final_state, golden), -1);
  EXPECT_EQ(checked.final_state.pc, golden.pc);

  job.mode = SimMode::kBaseline;
  const RunResult baseline = run_job(job, assembled);
  EXPECT_EQ(arch::first_register_difference(baseline.final_state, golden),
            -1);
}

TEST(CheckedSystem, DetectionNeverSlowsBelowBaseline) {
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok);
  SimJob job = checked_job(SystemConfig::standard(), 50000);
  const RunResult checked = run_job(job, assembled);
  job.mode = SimMode::kBaseline;
  const RunResult baseline = run_job(job, assembled);
  EXPECT_GE(checked.main_done_cycle, baseline.main_done_cycle);
  // At Table I defaults the overhead stays small (paper: <= 3.4%; we
  // allow a slack band for the synthetic kernel).
  EXPECT_LT(static_cast<double>(checked.main_done_cycle) /
                static_cast<double>(baseline.main_done_cycle),
            1.10);
}

TEST(CheckedSystem, SegmentsSealAndDrain) {
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok);
  const RunResult result =
      run_job(checked_job(SystemConfig::standard(), 50000), assembled);
  EXPECT_GT(result.segments, 2u);
  EXPECT_EQ(result.seals_drain, 1u);  // final HALT segment.
  EXPECT_EQ(result.segments, result.seals_full + result.seals_timeout +
                                 result.seals_interrupt + result.seals_drain);
  // Checkpoints: one at program start plus one per seal.
  EXPECT_EQ(result.checkpoints_taken, result.segments + 1);
  EXPECT_GT(result.delay_ns.summary().count(), 0u);
}

TEST(CheckedSystem, TerminationHeldUntilAllChecked) {
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok);
  const RunResult result =
      run_job(checked_job(SystemConfig::standard(), 50000), assembled);
  // §IV-H: the final check completes after the main core is done; the
  // program may only report termination then.
  EXPECT_GE(result.all_checked_cycle, result.main_done_cycle);
  EXPECT_GT(result.all_checked_cycle, 0u);
}

TEST(CheckedSystem, SystemFaultValidatesThenReports) {
  const auto assembled = isa::assemble(R"(
_start:
  li t0, 5
loop:
  addi t0, t0, -1
  bnez t0, loop
  fault
)");
  ASSERT_TRUE(assembled.ok);
  const RunResult result =
      run_job(checked_job(SystemConfig::standard(), 1000), assembled);
  EXPECT_EQ(result.exit_trap, arch::Trap::kSystemFault);
  // The fault is architectural (the program's own doing), not a hardware
  // error: the checkers validate the trap rather than flagging it.
  EXPECT_FALSE(result.error_detected);
  EXPECT_EQ(result.seals_drain, 1u);
}

TEST(CheckedSystem, TimeoutSealsOnMemoryQuietCode) {
  // A long loop with no loads or stores can only seal via the instruction
  // timeout (§IV-J).
  const auto assembled = isa::assemble(R"(
_start:
  li t0, 30000
loop:
  addi t1, t1, 3
  xor  t2, t2, t1
  addi t0, t0, -1
  bnez t0, loop
  halt
)");
  ASSERT_TRUE(assembled.ok);
  const RunResult result =
      run_job(checked_job(SystemConfig::standard(), 200000), assembled);
  EXPECT_GT(result.seals_timeout, 10u);
  EXPECT_EQ(result.seals_full, 0u);
  EXPECT_FALSE(result.error_detected);
}

TEST(CheckedSystem, InfiniteTimeoutNeverSealsEarly) {
  SystemConfig config = SystemConfig::standard();
  config.log.instruction_timeout = 0;  // the paper's "infinity" setting.
  const auto assembled = isa::assemble(R"(
_start:
  li t0, 30000
loop:
  addi t1, t1, 3
  addi t0, t0, -1
  bnez t0, loop
  halt
)");
  ASSERT_TRUE(assembled.ok);
  const RunResult result = run_job(checked_job(config, 200000), assembled);
  EXPECT_EQ(result.seals_timeout, 0u);
  EXPECT_EQ(result.segments, 1u);  // only the drain segment.
}

TEST(CheckedSystem, InterruptsForceEarlyCheckpoints) {
  SystemConfig config = SystemConfig::standard();
  config.interrupts.enabled = true;
  config.interrupts.interval_cycles = 2000;
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok);
  const RunResult result = run_job(checked_job(config, 50000), assembled);
  EXPECT_GT(result.seals_interrupt, 2u);
  EXPECT_FALSE(result.error_detected);  // stream identity preserved §IV-G.
}

TEST(CheckedSystem, RdcycleForwardedThroughLog) {
  const auto assembled = isa::assemble(R"(
_start:
  li t0, 200
  la t1, out
loop:
  rdcycle t2
  sd t2, 0(t1)
  addi t0, t0, -1
  bnez t0, loop
  halt
.org 0x100000
out:
)");
  ASSERT_TRUE(assembled.ok);
  const RunResult result =
      run_job(checked_job(SystemConfig::standard(), 10000), assembled);
  // Non-determinism would diverge the checker without log forwarding.
  EXPECT_FALSE(result.error_detected);
  EXPECT_EQ(result.exit_trap, arch::Trap::kHalt);
}

TEST(CheckedSystem, SlowCheckersBackPressureTheMainCore) {
  // Figure 9's mechanism: underpowered checkers must stall a
  // compute-bound main core on log-full.
  SystemConfig slow = SystemConfig::standard();
  slow.checker.freq_mhz = 125;
  const auto workload =
      workloads::make_bitcount(workloads::Scale{.factor = 0.2});
  const auto assembled = workloads::assemble_or_die(workload);
  SimJob job = checked_job(slow, 400000);
  const RunResult throttled = run_job(job, assembled);
  job.mode = SimMode::kBaseline;
  const RunResult baseline = run_job(job, assembled);
  const double slowdown = static_cast<double>(throttled.main_done_cycle) /
                          static_cast<double>(baseline.main_done_cycle);
  EXPECT_GT(slowdown, 1.5);
  EXPECT_GT(throttled.log_full_stall_cycles, 0u);
}

TEST(CheckedSystem, CheckpointOnlyModeMatchesFig10Setup) {
  // Figure 10: checkpoint/log bookkeeping with infinitely fast checkers.
  SimJob job = checked_job(SystemConfig::standard(), 50000);
  job.mode = SimMode::kCheckpointOnly;
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok);
  const RunResult result = run_job(job, assembled);
  EXPECT_EQ(result.log_full_stall_cycles, 0u);
  EXPECT_GT(result.checkpoints_taken, 1u);
  EXPECT_FALSE(result.error_detected);
}

TEST(CheckedSystem, TinySegmentsCostMoreThanLargeOnes) {
  // Figure 10's shape: shrinking the log (and timeout) 10x increases the
  // checkpoint-stall overhead.
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok);
  SimJob small = checked_job(SystemConfig::standard(), 50000);
  small.mode = SimMode::kCheckpointOnly;
  small.config.log.total_bytes = 36 * 1024 / 10;
  small.config.log.instruction_timeout = 500;
  SimJob large = small;
  large.config.log.total_bytes = 360 * 1024;
  large.config.log.instruction_timeout = 50000;
  const RunResult small_run = run_job(small, assembled);
  const RunResult large_run = run_job(large, assembled);
  EXPECT_GT(small_run.checkpoints_taken, 5 * large_run.checkpoints_taken);
  EXPECT_GE(small_run.main_done_cycle, large_run.main_done_cycle);
}

TEST(CheckedSystem, MacroOpsNeverStraddleSegments) {
  // §IV-D boundary rule: with a 5-entry segment and back-to-back LDP/STP
  // (2 entries each), seals happen early rather than splitting a pair.
  SystemConfig config = SystemConfig::standard();
  config.log.segments = 2;
  config.checker.num_cores = 2;
  config.log.total_bytes = 2 * 5 * config.log.entry_bytes;
  const auto assembled = isa::assemble(R"(
_start:
  li t0, 100
  la t1, data
loop:
  ldp a0, 0(t1)
  stp a0, 16(t1)
  addi t0, t0, -1
  bnez t0, loop
  halt
.org 0x200000
data:
)");
  ASSERT_TRUE(assembled.ok);
  const RunResult result = run_job(checked_job(config, 10000), assembled);
  // If a pair were ever split across segments, the checker would see a
  // log-overrun/kind mismatch; passing means the rule held.
  EXPECT_FALSE(result.error_detected);
  EXPECT_GT(result.seals_full, 10u);
}

TEST(CheckedSystem, SingleCheckerIsStillCorrect) {
  SystemConfig config = SystemConfig::standard();
  config.log.segments = 1;
  config.checker.num_cores = 1;
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok);
  const RunResult result = run_job(checked_job(config, 50000), assembled);
  EXPECT_FALSE(result.error_detected);
  EXPECT_EQ(result.exit_trap, arch::Trap::kHalt);
}

TEST(CheckedSystem, MaxInstructionBudgetStopsCleanly) {
  const auto assembled = isa::assemble(R"(
_start:
  j _start
)");
  ASSERT_TRUE(assembled.ok);
  const RunResult result =
      run_job(checked_job(SystemConfig::standard(), 1000), assembled);
  EXPECT_EQ(result.instructions, 1000u);
  EXPECT_EQ(result.exit_trap, arch::Trap::kNone);
  EXPECT_FALSE(result.error_detected);
}

TEST(CheckedSystem, CountersPopulated) {
  const auto assembled = isa::assemble(kMixedProgram);
  ASSERT_TRUE(assembled.ok);
  const RunResult result =
      run_job(checked_job(SystemConfig::standard(), 50000), assembled);
  EXPECT_GT(result.counters.get("l1d.hits"), 0u);
  EXPECT_GT(result.counters.get("log.entries"), 0u);
  EXPECT_GT(result.counters.get("lfu.captures"), 0u);
  // Every logged entry is a load (LFU-captured), store, or nondet.
  EXPECT_LE(result.counters.get("lfu.captures"),
            result.counters.get("log.entries"));
}

/// 100 iterations of one LDP and one STP: 400 log entries, two per
/// macro-op.
constexpr const char* kPairLoop = R"(
_start:
  li   t0, 100
  la   t1, data
  li   t2, 0
loop:
  ldp  a0, 0(t1)
  stp  a0, 16(t1)
  addi t2, t2, 1
  bne  t2, t0, loop
  halt
.org 0x200000
data:
)";

/// What run_job throws as std::invalid_argument for `config` on the pair
/// loop; a test failure (and "") when it runs instead.
std::string rejection(const SystemConfig& config) {
  const auto assembled = isa::assemble(kPairLoop);
  EXPECT_TRUE(assembled.ok);
  try {
    run_job(checked_job(config, 50000), assembled);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "run_job accepted the geometry";
  return "";
}

TEST(CheckedSystem, CheckerCoresMustMatchSegments) {
  // Each segment is checked by its own core: with 4 cores for 12 segments
  // the checker walk indexed past its cores (a heap overflow in release).
  SystemConfig config = SystemConfig::standard();
  config.checker.num_cores = 4;
  EXPECT_NE(rejection(config).find("checker.num_cores"), std::string::npos);
}

TEST(CheckedSystem, ZeroSegmentsAreRejected) {
  SystemConfig config = SystemConfig::standard();
  config.log.segments = 0;
  EXPECT_NE(rejection(config).find("log.segments"), std::string::npos);
}

TEST(CheckedSystem, ZeroEntrySegmentsAreRejected) {
  SystemConfig config = SystemConfig::standard();
  config.log.total_bytes = config.log.segments * config.log.entry_bytes - 1;
  EXPECT_NE(rejection(config).find("log.total_bytes"), std::string::npos);
  config = SystemConfig::standard();
  config.log.entry_bytes = 0;
  EXPECT_NE(rejection(config).find("log.entry_bytes"), std::string::npos);
}

TEST(CheckedSystem, SegmentsMustHoldOneMacroOp) {
  // With one entry per segment no LDP or STP fits any segment: the free
  // count wrapped and the run passed with its entries crammed into a few
  // segments. Two entries is the smallest geometry: each pair op then
  // fills a segment of its own, and the drain seals one more.
  SystemConfig config = SystemConfig::standard();
  config.log.total_bytes = config.log.segments * 1 * config.log.entry_bytes;
  EXPECT_NE(rejection(config).find("log.total_bytes"), std::string::npos);

  config.log.total_bytes = config.log.segments * 2 * config.log.entry_bytes;
  const auto assembled = isa::assemble(kPairLoop);
  ASSERT_TRUE(assembled.ok);
  const RunResult result = run_job(checked_job(config, 50000), assembled);
  EXPECT_FALSE(result.error_detected);
  EXPECT_EQ(result.exit_trap, arch::Trap::kHalt);
  EXPECT_EQ(result.counters.get("log.entries"), 400u);
  EXPECT_EQ(result.segments, 201u);
}

/// FNV-1a over the canonical JSON of every Table II kernel's RunResult
/// (Scale 0.05, standard config, suite order) with mem_digest zeroed: the
/// digest has its own pin (SparseMemoryDigest.GoldenVectors), everything
/// else a run reports is pinned here.
std::uint64_t suite_result_hash(SimMode mode) {
  Fnv1a64 hash;
  for (const workloads::Workload& workload :
       workloads::standard_suite(workloads::Scale{0.05})) {
    SimJob job;
    job.config = SystemConfig::standard();
    job.mode = mode;
    job.max_instructions = 4'000'000;
    RunResult result = run_job(job, workloads::assemble_or_die(workload));
    result.mem_digest = 0;
    hash.mix_bytes(runtime::to_json(result));
  }
  return hash.value();
}

TEST(CheckedSystem, GoldenRunResults) {
  // Every artifact is built from these results: seal points, checker walk
  // timing, delay histograms and counters. A change to the commit loop,
  // the log or replay that is meant to be a pure host-side speed-up must
  // leave every byte identical; stdout alone does not show most of them.
  EXPECT_EQ(suite_result_hash(SimMode::kBaseline), 0x8903A4F4A49F5D45ULL);
  EXPECT_EQ(suite_result_hash(SimMode::kCheckpointOnly), 0x83E38039869751DFULL);
  EXPECT_EQ(suite_result_hash(SimMode::kChecked), 0xBC784BE5FBEA4E00ULL);
}

}  // namespace
}  // namespace paradet::sim
