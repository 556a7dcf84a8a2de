// Property-based tests over randomly generated programs:
//   P1. Architectural equivalence: the checked system computes exactly
//       what the golden interpreter computes — registers, pc and final
//       memory — and raises no detection events when no faults are
//       injected (no false positives).
//   P2. No silent data corruption: under an injected register-file fault,
//       either the error is detected or the run is masked — registers,
//       pc, exit trap and final-memory digest all equal the clean run's
//       (sim::classify_fault_outcome never says kSilent).
//   P3. Store corruption is always detected (the store-value check fires
//       on the corrupted store itself).
// Each property sweeps many seeds via parameterized gtest.
#include <gtest/gtest.h>

#include <string>

#include "arch/interpreter.h"
#include "common/rng.h"
#include "isa/crack.h"
#include "sim/checked_system.h"

namespace paradet {
namespace {

/// Generates a structurally valid random program: a register/memory/fp op
/// soup inside a counted loop, over a private 16 KiB data window. No
/// RDCYCLE (its non-determinism is deliberately excluded from equivalence
/// properties and tested separately).
std::string random_program(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::string body;
  int label = 0;
  // Register names are built with += : gcc 12's -O3 -Wrestrict misfires
  // on `"x" + std::to_string(...)`.
  const auto x = [&](int lo, int hi) {
    std::string name = "x";
    name += std::to_string(lo + static_cast<int>(rng.next_below(
                                    static_cast<std::uint64_t>(hi - lo + 1))));
    return name;
  };
  const auto f = [&]() {
    std::string name = "f";
    name += std::to_string(rng.next_below(10));
    return name;
  };
  const unsigned ops = 24 + static_cast<unsigned>(rng.next_below(32));
  for (unsigned i = 0; i < ops; ++i) {
    switch (rng.next_below(14)) {
      case 0:
        body += "  add " + x(5, 17) + ", " + x(5, 17) + ", " + x(5, 17) +
                "\n";
        break;
      case 1:
        body += "  sub " + x(5, 17) + ", " + x(5, 17) + ", " + x(5, 17) +
                "\n";
        break;
      case 2:
        body += "  xor " + x(5, 17) + ", " + x(5, 17) + ", " + x(5, 17) +
                "\n";
        break;
      case 3:
        body += "  mul " + x(5, 17) + ", " + x(5, 17) + ", " + x(5, 17) +
                "\n";
        break;
      case 4:
        body += "  div " + x(5, 17) + ", " + x(5, 17) + ", " + x(5, 17) +
                "\n";
        break;
      case 5:
        body += "  popc " + x(5, 17) + ", " + x(5, 17) + "\n";
        break;
      case 6: {
        const auto offset = std::to_string(rng.next_below(1024) * 8);
        body += "  ld " + x(5, 17) + ", " + offset + "(x20)\n";
        break;
      }
      case 7: {
        const auto offset = std::to_string(rng.next_below(1024) * 8);
        body += "  sd " + x(5, 17) + ", " + offset + "(x20)\n";
        break;
      }
      case 8: {
        const auto offset = std::to_string(rng.next_below(511) * 16);
        body += "  ldp x22, " + offset + "(x20)\n";
        break;
      }
      case 9: {
        const auto offset = std::to_string(rng.next_below(511) * 16);
        body += "  stp x22, " + offset + "(x20)\n";
        break;
      }
      case 10:
        body += "  fadd " + f() + ", " + f() + ", " + f() + "\n";
        break;
      case 11:
        body += "  fmul " + f() + ", " + f() + ", " + f() + "\n";
        break;
      case 12: {
        // Forward branch over one instruction: keeps control flow bounded.
        const std::string skip = "sk" + std::to_string(label++);
        body += "  bne " + x(5, 17) + ", " + x(5, 17) + ", " + skip + "\n";
        body += "  addi " + x(5, 17) + ", " + x(5, 17) + ", 7\n";
        body += skip + ":\n";
        break;
      }
      case 13:
        body += "  srli " + x(5, 17) + ", " + x(5, 17) + ", " +
                std::to_string(rng.next_below(63) + 1) + "\n";
        break;
    }
  }

  std::string setup;
  for (int r = 5; r <= 17; ++r) {
    setup += "  li x" + std::to_string(r) + ", " +
             std::to_string(static_cast<std::int64_t>(rng.next() % 100000) -
                            50000) +
             "\n";
  }
  for (int r = 0; r < 6; ++r) {
    setup += "  fcvt.d.l f" + std::to_string(r) + ", x" +
             std::to_string(5 + r) + "\n";
  }

  return "_start:\n  la x20, data\n" + setup +
         "  li x28, " + std::to_string(12 + rng.next_below(10)) +
         "\nouter:\n" + body +
         "  addi x28, x28, -1\n"
         "  bnez x28, outer\n"
         "  halt\n"
         ".org 0x200000\n"
         "data:\n";
}

/// Final state of a golden-interpreter run.
struct Golden {
  arch::ArchState state;
  /// SparseMemory::digest() of the final memory. Loaded like the
  /// simulator loads (assembled chunks only), and the digest skips zero
  /// pages, so it is comparable to RunResult::mem_digest.
  std::uint64_t mem_digest = 0;
};

Golden golden_state(const isa::Assembled& assembled, std::uint64_t budget) {
  arch::SparseMemory memory;
  for (const auto& chunk : assembled.chunks) {
    memory.write_block(chunk.base, chunk.bytes);
  }
  std::uint64_t cycle = 0;
  arch::MemoryDataPort port(memory, cycle);
  arch::Machine machine(memory, port);
  arch::ArchState state;
  state.pc = assembled.entry;
  EXPECT_EQ(machine.run(state, budget), arch::Trap::kHalt);
  return {state, memory.digest()};
}

/// Finds the first store micro-op sequence number at or after `from` by
/// replaying the program through the decoder/cracker.
std::int64_t find_store_seq(const isa::Assembled& assembled,
                            std::uint64_t from, std::uint64_t budget) {
  arch::SparseMemory memory;
  for (const auto& chunk : assembled.chunks) {
    memory.write_block(chunk.base, chunk.bytes);
  }
  std::uint64_t cycle = 0;
  arch::MemoryDataPort port(memory, cycle);
  arch::DecodeCache decode(memory);
  arch::ArchState state;
  state.pc = assembled.entry;
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < budget; ++i) {
    const isa::Inst* inst = decode.decode_at(state.pc);
    if (inst == nullptr) return -1;
    const isa::CrackedInst cracked = isa::crack(*inst);
    for (unsigned u = 0; u < cracked.count; ++u) {
      if (seq >= from && isa::is_store(cracked.uops[u].inst.op)) {
        return static_cast<std::int64_t>(seq);
      }
      ++seq;
    }
    if (arch::execute(*inst, state, port).trap != arch::Trap::kNone) break;
  }
  return -1;
}

/// The checked Table I system over 100,000 instructions, fault-free.
sim::SimJob checked_job() {
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = 100000;
  return job;
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range<std::uint64_t>(0, 20));

TEST_P(RandomPrograms, P1_EquivalenceAndNoFalsePositives) {
  const auto assembled = isa::assemble(random_program(GetParam()));
  ASSERT_TRUE(assembled.ok) << assembled.errors[0];
  const Golden golden = golden_state(assembled, 100000);
  const sim::RunResult checked = sim::run_job(checked_job(), assembled);
  EXPECT_EQ(checked.exit_trap, arch::Trap::kHalt);
  EXPECT_FALSE(checked.error_detected)
      << checked.first_error->describe();
  EXPECT_EQ(
      arch::first_register_difference(checked.final_state, golden.state), -1);
  EXPECT_EQ(checked.final_state.pc, golden.state.pc);
  EXPECT_EQ(checked.mem_digest, golden.mem_digest);
}

TEST_P(RandomPrograms, P2_NoSilentDataCorruptionUnderRegisterFaults) {
  const std::uint64_t seed = GetParam();
  const auto assembled = isa::assemble(random_program(seed));
  ASSERT_TRUE(assembled.ok);
  sim::SimJob job = checked_job();
  const sim::RunResult clean = sim::run_job(job, assembled);

  SplitMix64 rng(seed * 7919 + 13);
  for (int trial = 0; trial < 4; ++trial) {
    core::FaultInjector faults;
    core::FaultSpec spec;
    spec.site = core::FaultSite::kMainArchReg;
    spec.at_seq = 50 + rng.next_below(clean.uops > 100 ? clean.uops - 100
                                                       : 1);
    spec.reg = 5 + static_cast<unsigned>(rng.next_below(13));
    spec.bit = static_cast<unsigned>(rng.next_below(64));
    faults.add(spec);
    job.faults = &faults;
    const sim::RunResult faulty = sim::run_job(job, assembled);
    EXPECT_NE(sim::classify_fault_outcome(clean, faulty),
              sim::FaultVerdict::kSilent)
        << "silent corruption: seed " << seed << " trial " << trial
        << " reg " << spec.reg << " bit " << spec.bit << " seq "
        << spec.at_seq;
  }
}

TEST_P(RandomPrograms, P3_StoreCorruptionAlwaysDetected) {
  const std::uint64_t seed = GetParam();
  const auto assembled = isa::assemble(random_program(seed));
  ASSERT_TRUE(assembled.ok);
  const std::int64_t seq = find_store_seq(assembled, 200, 100000);
  if (seq < 0) GTEST_SKIP() << "no store after seq 200 in this program";
  core::FaultInjector faults;
  core::FaultSpec spec;
  spec.site = core::FaultSite::kMainStoreValue;
  spec.at_seq = static_cast<UopSeq>(seq);
  spec.bit = static_cast<unsigned>(seed % 64);
  faults.add(spec);
  sim::SimJob job = checked_job();
  job.faults = &faults;
  const sim::RunResult faulty = sim::run_job(job, assembled);
  EXPECT_TRUE(faulty.error_detected) << "seed " << seed << " seq " << seq;
  ASSERT_TRUE(faulty.first_error.has_value());
  EXPECT_EQ(faulty.first_error->kind,
            core::DetectionKind::kStoreValueMismatch);
}

TEST_P(RandomPrograms, P1b_EquivalenceHoldsUnderSmallLogs) {
  // Stress segment churn: tiny segments, few checkers.
  sim::SimJob job = checked_job();
  job.config.log.total_bytes = 2 * 1024;
  job.config.log.segments = 4;
  job.config.checker.num_cores = 4;
  job.config.log.instruction_timeout = 200;
  const auto assembled = isa::assemble(random_program(GetParam()));
  ASSERT_TRUE(assembled.ok);
  const Golden golden = golden_state(assembled, 100000);
  const sim::RunResult checked = sim::run_job(job, assembled);
  EXPECT_FALSE(checked.error_detected)
      << checked.first_error->describe();
  EXPECT_EQ(
      arch::first_register_difference(checked.final_state, golden.state), -1);
  EXPECT_EQ(checked.mem_digest, golden.mem_digest);
}

}  // namespace
}  // namespace paradet
