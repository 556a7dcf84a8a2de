// Tests for the out-of-order main-core timing model: pipeline-order
// invariants, structural limits, branch-redirect behaviour, pinned
// timings of random streams, and the rewiring copy warm states use.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/config.h"
#include "common/hash.h"
#include "common/rng.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "sim/ooo_core.h"
#include "sim/warm_state.h"

namespace paradet::sim {
namespace {

/// A seeded random micro-op stream with a commit model, for driving a core
/// the way the system runner does: ALU, mul/div, FP, every control kind,
/// and loads and stores over a small address pool (so stores forward) plus
/// far addresses (so loads miss to DRAM), with occasional dependent load
/// chains and commit stalls to push issue and commit far past dispatch.
class RandomUopStream {
 public:
  explicit RandomUopStream(std::uint64_t seed) : rng_(seed) {}

  UopDesc next() {
    UopDesc desc;
    desc.seq = seq_++;
    desc.first_of_macro = seq_ == 1 || rng_.next_below(8) != 0;
    if (desc.first_of_macro) pc_ = next_pc_;
    desc.pc = pc_;
    next_pc_ = pc_ + 4;
    desc.regs.dest = rng_.next_below(8) == 0 ? -1 : static_cast<int>(reg());
    desc.regs.n_srcs = static_cast<unsigned>(rng_.next_below(4));
    for (unsigned s = 0; s < desc.regs.n_srcs; ++s) {
      desc.regs.srcs[s] = reg();
    }
    if (consumers_left_ > 0) {
      // A use of the chain's latest load, waiting as long as the load.
      --consumers_left_;
      desc.cls = isa::ExecClass::kIntAlu;
      desc.regs.srcs[0] = 1;
      desc.regs.n_srcs = 1;
      return desc;
    }
    if (chain_ > 0) {
      // Pointer chase: each load's address comes from the previous one.
      --chain_;
      consumers_left_ = consumers_;
      make_load(desc, far_addr());
      desc.regs.srcs[0] = 1;
      desc.regs.n_srcs = 1;
      desc.regs.dest = 1;
      return desc;
    }
    const std::uint64_t kind = rng_.next_below(256);
    if (kind < 80) {
      desc.cls = isa::ExecClass::kIntAlu;
    } else if (kind < 96) {
      desc.cls = kind < 88 ? isa::ExecClass::kIntMul : isa::ExecClass::kIntDiv;
    } else if (kind < 128) {
      desc.cls = static_cast<isa::ExecClass>(
          static_cast<unsigned>(isa::ExecClass::kFpAlu) + (kind - 96) / 8);
    } else if (kind < 176) {
      make_load(desc, rng_.next_below(4) == 0 ? far_addr() : pool_addr(desc));
    } else if (kind < 208) {
      desc.cls = isa::ExecClass::kStore;
      desc.is_store = true;
      desc.mem_addr = pool_addr(desc);
      desc.regs.dest = -1;
    } else if (kind < 255) {
      make_control(desc);
    } else {
      desc.cls = isa::ExecClass::kIntAlu;
      chain_ = 8 + static_cast<int>(rng_.next_below(32));
      consumers_ = static_cast<int>(rng_.next_below(3));
    }
    return desc;
  }

  /// The commit cycle of a micro-op that completed at `complete`: in order,
  /// `width` per cycle, now and then stalled as a checkpoint or a full log
  /// would stall it.
  Cycle commit(Cycle complete, unsigned width) {
    Cycle commit = std::max(complete + 1, last_commit_);
    if (rng_.next_below(256) == 0) commit += rng_.next_below(400);
    if (commit == last_commit_ && commits_in_cycle_ >= width) ++commit;
    if (commit > last_commit_) {
      last_commit_ = commit;
      commits_in_cycle_ = 1;
    } else {
      ++commits_in_cycle_;
    }
    return commit;
  }

 private:
  unsigned reg() {
    return static_cast<unsigned>(rng_.next_below(kNumArchRegs));
  }

  Addr far_addr() { return 0x1000000 + 64 * rng_.next_below(1 << 20); }

  /// 64 words; sizes 1-8 bytes, naturally aligned, so some loads are
  /// fully contained in an older store and some only overlap one.
  Addr pool_addr(UopDesc& desc) {
    const Addr word = 0x40000 + 8 * rng_.next_below(64);
    desc.mem_size = static_cast<std::uint8_t>(1u << rng_.next_below(4));
    return word + desc.mem_size * rng_.next_below(8 / desc.mem_size);
  }

  void make_load(UopDesc& desc, Addr addr) {
    desc.cls = isa::ExecClass::kLoad;
    desc.is_load = true;
    desc.mem_addr = addr;
    if (desc.mem_size == 0) desc.mem_size = 8;
  }

  void make_control(UopDesc& desc) {
    // Targets are a function of the pc so the BTB can learn them; code
    // spans 8 KiB so the i-cache misses until warm.
    const Addr fixed = 0x10000 + ((desc.pc * 2654435761u) & 0x1FFC);
    desc.cls = isa::ExecClass::kIntAlu;
    desc.regs.dest = -1;
    desc.ctrl = static_cast<CtrlKind>(1 + rng_.next_below(5));
    switch (desc.ctrl) {
      case CtrlKind::kCond:
        desc.taken = rng_.next_below(4) != 0;
        desc.target = fixed;
        break;
      case CtrlKind::kCall:
        returns_.push_back(desc.pc + 4);
        [[fallthrough]];
      case CtrlKind::kJump:
        desc.taken = true;
        desc.target = fixed;
        break;
      case CtrlKind::kRet:
        desc.taken = true;
        desc.target = returns_.empty() ? fixed : returns_.back();
        if (!returns_.empty()) returns_.pop_back();
        break;
      default:
        desc.taken = true;
        desc.target = fixed + 64 * rng_.next_below(2);
        break;
    }
    if (desc.taken) next_pc_ = desc.target;
  }

  SplitMix64 rng_;
  UopSeq seq_ = 0;
  Addr pc_ = 0x10000;
  Addr next_pc_ = 0x10000;
  int chain_ = 0;          ///< loads left in the current chain.
  int consumers_ = 0;      ///< uses emitted after each load of the chain.
  int consumers_left_ = 0;
  std::vector<Addr> returns_;
  Cycle last_commit_ = 0;
  unsigned commits_in_cycle_ = 0;
};

/// Runs `uops` micro-ops of `stream` through `machine`'s core and folds
/// every UopTiming field into `hash`.
void drive(MachineState& machine, RandomUopStream& stream, int uops,
           Fnv1a64& hash) {
  const unsigned width = machine.core.config().commit_width;
  for (int i = 0; i < uops; ++i) {
    const UopTiming t = machine.core.schedule(stream.next());
    machine.core.retire(stream.commit(t.complete, width));
    hash.mix_u64(t.fetch);
    hash.mix_u64(t.dispatch);
    hash.mix_u64(t.issue);
    hash.mix_u64(t.complete);
    hash.mix_u64(static_cast<std::uint64_t>(t.int_alu_unit));
    hash.mix_byte(t.store_forwarded ? 1 : 0);
    hash.mix_byte(t.mispredicted ? 1 : 0);
  }
}

std::uint64_t timing_hash(const SystemConfig& config) {
  MachineState machine(config);
  RandomUopStream stream(0x5EED0000 + config.main_core.rob_entries);
  Fnv1a64 hash;
  drive(machine, stream, 200000, hash);
  hash.mix_u64(machine.core.branch_mispredicts());
  hash.mix_u64(machine.core.uops_scheduled());
  return hash.value();
}

/// Small enough that the ROB, IQ, LQ and SQ limits all bind often.
SystemConfig tight_config() {
  SystemConfig config = SystemConfig::standard();
  config.main_core.rob_entries = 8;
  config.main_core.iq_entries = 4;
  config.main_core.lq_entries = 2;
  config.main_core.sq_entries = 2;
  return config;
}

TEST(OoOCore, GoldenTimings) {
  // Every artifact's cycle counts come from these timings, so a scheduler
  // change that is meant to be a pure speed-up must leave every field of
  // every micro-op identical. Under the standard config the stream's load
  // chains fill the IQ and LQ and put issue up to ~2,650 cycles past
  // dispatch; only the tight config fills the SQ (the Table II suite never
  // fills the LQ or SQ).
  SystemConfig standard = SystemConfig::standard();
  EXPECT_EQ(timing_hash(standard), 0xD4AB0B782AA6E225ULL);
  EXPECT_EQ(timing_hash(tight_config()), 0x4BDCC158090CD8B6ULL);
  standard.main_core.perfect_memory_disambiguation = false;
  EXPECT_EQ(timing_hash(standard), 0xE4A4324B7EC771F8ULL);
}

TEST(OoOCore, RewiredCopyContinuesLikeTheOriginal) {
  // A warm-state fork copies the core mid-run; from then on the copy must
  // schedule exactly as the original would have. Copying at many points
  // catches state that matters only while some queue is occupied.
  for (const SystemConfig& config :
       {SystemConfig::standard(), tight_config()}) {
    MachineState original(config);
    RandomUopStream stream(7);
    Fnv1a64 unchecked;
    for (int point = 0; point < 100; ++point) {
      drive(original, stream, 500, unchecked);
      MachineState copy(original);
      RandomUopStream copy_stream = stream;
      Fnv1a64 original_hash;
      Fnv1a64 copy_hash;
      drive(original, stream, 300, original_hash);
      drive(copy, copy_stream, 300, copy_hash);
      ASSERT_EQ(copy_hash.value(), original_hash.value())
          << "copy point " << point << ", ROB " << config.main_core.rob_entries;
    }
  }
}

class OoOCoreTest : public ::testing::Test {
 protected:
  OoOCoreTest()
      : config_(SystemConfig::standard()),
        dram_(config_.dram, config_.main_core.freq_mhz),
        dram_level_(dram_),
        l2_(config_.l2, dram_level_),
        l1i_(config_.l1i, l2_),
        l1d_(config_.l1d, l2_),
        core_(config_, l1i_, l1d_) {}

  /// Schedules a uop and commits it at the earliest legal cycle. Default
  /// pcs stay within one 64-byte i-cache line so the front end is warm and
  /// the tests isolate back-end behaviour.
  UopTiming step(UopDesc desc) {
    desc.pc = desc.pc == 0 ? 0x1000 + (seq_ % 16) * 4 : desc.pc;
    desc.seq = seq_++;
    const UopTiming timing = core_.schedule(desc);
    Cycle commit = std::max(timing.complete + 1, last_commit_);
    if (commit == last_commit_ && commits_in_cycle_ >= 3) ++commit;
    if (commit > last_commit_) {
      last_commit_ = commit;
      commits_in_cycle_ = 1;
    } else {
      ++commits_in_cycle_;
    }
    core_.retire(commit);
    timings_.push_back(timing);
    return timing;
  }

  UopDesc alu(int dest, std::initializer_list<unsigned> srcs) {
    UopDesc desc;
    desc.cls = isa::ExecClass::kIntAlu;
    desc.regs.dest = dest;
    for (const unsigned s : srcs) desc.regs.srcs[desc.regs.n_srcs++] = s;
    return desc;
  }

  UopDesc load(int dest, Addr addr) {
    UopDesc desc;
    desc.cls = isa::ExecClass::kLoad;
    desc.is_load = true;
    desc.mem_addr = addr;
    desc.mem_size = 8;
    desc.regs.dest = dest;
    return desc;
  }

  UopDesc store(Addr addr, std::initializer_list<unsigned> srcs = {}) {
    UopDesc desc;
    desc.cls = isa::ExecClass::kStore;
    desc.is_store = true;
    desc.mem_addr = addr;
    desc.mem_size = 8;
    for (const unsigned s : srcs) desc.regs.srcs[desc.regs.n_srcs++] = s;
    return desc;
  }

  SystemConfig config_;
  mem::DramModel dram_;
  mem::DramLevel dram_level_;
  mem::Cache l2_;
  mem::Cache l1i_;
  mem::Cache l1d_;
  OoOCore core_;
  UopSeq seq_ = 0;
  Cycle last_commit_ = 0;
  unsigned commits_in_cycle_ = 0;
  std::vector<UopTiming> timings_;
};

TEST_F(OoOCoreTest, StageOrderingInvariant) {
  for (int i = 0; i < 200; ++i) {
    const UopTiming t = step(alu(5, {5}));
    EXPECT_LE(t.fetch, t.dispatch);
    EXPECT_LT(t.dispatch, t.issue);
    EXPECT_LT(t.issue, t.complete + 1);
  }
}

TEST_F(OoOCoreTest, DependentChainSerialises) {
  // A chain of dependent 1-cycle ALU ops completes 1 per cycle.
  const UopTiming first = step(alu(5, {5}));
  Cycle prev = first.complete;
  for (int i = 0; i < 50; ++i) {
    const UopTiming t = step(alu(5, {5}));
    EXPECT_EQ(t.complete, prev + 1);
    prev = t.complete;
  }
}

TEST_F(OoOCoreTest, IndependentOpsExploitWidth) {
  // Independent ALU ops on distinct registers: ~3 per cycle after warmup.
  Cycle start = 0, end = 0;
  for (int i = 0; i < 300; ++i) {
    const UopTiming t = step(alu(5 + (i % 20), {}));
    if (i == 50) start = t.complete;
    if (i == 290) end = t.complete;
  }
  const double per_cycle = 240.0 / static_cast<double>(end - start);
  EXPECT_GT(per_cycle, 2.0);  // close to the 3-wide limit.
}

TEST_F(OoOCoreTest, LoadsOverlapUnderPerfectDisambiguation) {
  // Warm nothing: all loads miss to DRAM; with ROB 40 and 9-uop iterations
  // several misses must be in flight simultaneously, so total time is far
  // below the serial sum of latencies.
  const int kLoads = 30;
  Cycle first_issue = kCycleNever, last_complete = 0;
  for (int i = 0; i < kLoads; ++i) {
    // Independent loads to distinct lines, each followed by a dependent op.
    const UopTiming t = step(load(6, 0x100000 + i * 4096));
    first_issue = std::min(first_issue, t.issue);
    last_complete = std::max(last_complete, t.complete);
    step(alu(7, {6}));
  }
  const Cycle span = last_complete - first_issue;
  // Serial DRAM latency would be ~150+ cycles per load.
  EXPECT_LT(span, kLoads * 100u);
}

TEST_F(OoOCoreTest, RobLimitsInFlightWindow) {
  // A load that misses to DRAM blocks commit; at most rob_entries uops may
  // dispatch past it.
  const UopTiming blocker = step(load(6, 0x900000));
  Cycle max_dispatch_during_block = 0;
  for (unsigned i = 0; i < config_.main_core.rob_entries + 10; ++i) {
    const UopTiming t = step(alu(8 + (i % 8), {}));
    if (i + 2 <= config_.main_core.rob_entries) {
      // Fits in the ROB alongside the blocker: dispatches early.
      max_dispatch_during_block = std::max(max_dispatch_during_block,
                                           t.dispatch);
    } else {
      // Window full: dispatch must wait for the blocker to commit.
      EXPECT_GT(t.dispatch, blocker.complete)
          << "uop " << i << " should have waited for the blocking load";
    }
  }
  EXPECT_LT(max_dispatch_during_block, blocker.complete);
}

TEST_F(OoOCoreTest, IqLimitDelaysDispatch) {
  // Every use of a DRAM-missing load waits in the IQ until the load
  // completes. The first iq_entries uses fill it; the next one dispatches
  // only once the first uses have issued.
  const UopTiming blocker = step(load(6, 0x900000));
  std::vector<UopTiming> uses;
  for (unsigned i = 0; i <= config_.main_core.iq_entries; ++i) {
    uses.push_back(step(alu(8 + (i % 8), {6})));
  }
  ASSERT_LT(config_.main_core.iq_entries + 2, config_.main_core.rob_entries);
  EXPECT_LT(uses[config_.main_core.iq_entries - 1].dispatch, blocker.complete);
  EXPECT_EQ(uses.back().dispatch, uses.front().issue + 1);
}

TEST_F(OoOCoreTest, LqLimitDelaysDispatch) {
  // lq_entries + 1 independent loads that all miss to DRAM: the last one
  // dispatches only after the first has committed and left the LQ.
  std::vector<UopTiming> loads;
  Cycle first_commit = 0;
  for (unsigned i = 0; i <= config_.main_core.lq_entries; ++i) {
    loads.push_back(step(load(8 + (i % 8), 0x100000 + i * 4096)));
    if (i == 0) first_commit = last_commit_;
  }
  ASSERT_LT(config_.main_core.lq_entries + 1, config_.main_core.iq_entries);
  EXPECT_LT(loads[config_.main_core.lq_entries - 1].dispatch,
            loads.front().complete);
  EXPECT_EQ(loads.back().dispatch, first_commit + 1);
}

TEST_F(OoOCoreTest, SqLimitDelaysDispatch) {
  // A DRAM-missing load holds up commit; the sq_entries stores behind it
  // fill the SQ, so one more store waits for the first store's commit,
  // which in-order commit puts after the load's.
  const UopTiming blocker = step(load(6, 0x900000));
  const Cycle blocker_commit = last_commit_;
  std::vector<UopTiming> stores;
  for (unsigned i = 0; i <= config_.main_core.sq_entries; ++i) {
    stores.push_back(step(store(0x200000 + i * 64)));
  }
  ASSERT_LT(config_.main_core.sq_entries + 2, config_.main_core.rob_entries);
  EXPECT_LT(stores[config_.main_core.sq_entries - 1].dispatch,
            blocker.complete);
  EXPECT_GT(stores.back().dispatch, blocker_commit);
}

TEST_F(OoOCoreTest, StoreToLoadForwardingIsFast) {
  step(store(0x4000, {5}));
  const UopTiming forwarded = step(load(6, 0x4000));
  EXPECT_TRUE(forwarded.store_forwarded);
  // Forwarded loads bypass the cache: complete shortly after issue.
  EXPECT_LE(forwarded.complete - forwarded.issue, 2u);
  const UopTiming not_forwarded = step(load(7, 0x8000));
  EXPECT_FALSE(not_forwarded.store_forwarded);
}

TEST_F(OoOCoreTest, PartialOverlapDoesNotForward) {
  step(store(0x4000, {5}));  // 8-byte store.
  UopDesc narrow = load(6, 0x4004);
  narrow.mem_size = 8;  // 8-byte load at +4 straddles the store's end.
  const UopTiming t = step(narrow);
  EXPECT_FALSE(t.store_forwarded);
}

TEST_F(OoOCoreTest, MispredictRedirectsFetch) {
  // Train nothing: the first taken branch with an empty BTB mispredicts
  // (predictor initialised weakly not-taken) or pays the BTB-miss bubble.
  UopDesc branch = alu(-1, {5});
  branch.ctrl = CtrlKind::kCond;
  branch.taken = true;
  branch.target = 0x100;
  const UopTiming bt = step(branch);
  const UopTiming after = step(alu(6, {}));
  if (bt.mispredicted) {
    EXPECT_GE(after.fetch,
              bt.complete + config_.main_core.redirect_penalty_cycles);
  } else {
    EXPECT_GE(after.fetch, bt.fetch);
  }
  EXPECT_GE(core_.branch_mispredicts(), bt.mispredicted ? 1u : 0u);
}

TEST_F(OoOCoreTest, WellPredictedLoopHasNoBubbles) {
  // Train a backwards branch, then verify fetch proceeds without redirect
  // gaps.
  for (int i = 0; i < 50; ++i) {
    UopDesc branch = alu(-1, {5});
    branch.pc = 0x2000;
    branch.ctrl = CtrlKind::kCond;
    branch.taken = true;
    branch.target = 0x1f00;
    step(branch);
  }
  const Cycle before = timings_.back().fetch;
  UopDesc branch = alu(-1, {5});
  branch.pc = 0x2000;
  branch.ctrl = CtrlKind::kCond;
  branch.taken = true;
  branch.target = 0x1f00;
  const UopTiming t = step(branch);
  EXPECT_FALSE(t.mispredicted);
  EXPECT_LE(t.fetch - before, 2u);
}

TEST_F(OoOCoreTest, UnpipelinedDivisionSerialisesUnit) {
  UopDesc div;
  div.cls = isa::ExecClass::kIntDiv;
  div.regs.dest = 5;
  const UopTiming d1 = step(div);
  const UopTiming d2 = step(div);
  // Second divide cannot start until the first finishes (single unit,
  // unpipelined).
  EXPECT_GE(d2.issue, d1.complete);
}

TEST_F(OoOCoreTest, PipelinedMultipliesOverlap) {
  UopDesc mul;
  mul.cls = isa::ExecClass::kIntMul;
  mul.regs.dest = 5;
  const UopTiming m1 = step(mul);
  mul.regs.dest = 6;
  const UopTiming m2 = step(mul);
  EXPECT_LE(m2.issue, m1.issue + 1);  // initiation interval 1.
}

TEST_F(OoOCoreTest, IntAluUnitIndexReported) {
  const UopTiming t = step(alu(5, {}));
  EXPECT_GE(t.int_alu_unit, 0);
  EXPECT_LT(t.int_alu_unit, static_cast<int>(config_.main_core.int_alus));
  const UopTiming ld = step(load(6, 0x5000));
  EXPECT_EQ(ld.int_alu_unit, -1);  // AGU use is not an ALU result.
}

TEST_F(OoOCoreTest, CommitBackPressureStallsDispatch) {
  // Simulate a detection-side stall: commit every uop 1000 cycles late and
  // watch dispatch throttle to the ROB drain rate.
  for (int i = 0; i < 10; ++i) step(alu(5 + i % 4, {}));
  const Cycle stall_until = last_commit_ + 1000;
  // Commit the next uops no earlier than stall_until.
  UopDesc desc = alu(9, {});
  desc.pc = 0x1000;
  desc.seq = seq_++;
  const UopTiming t = core_.schedule(desc);
  core_.retire(stall_until);
  last_commit_ = stall_until;
  commits_in_cycle_ = 1;
  // Fill the ROB: subsequent dispatches must eventually wait for
  // stall_until.
  Cycle latest_dispatch = t.dispatch;
  for (unsigned i = 0; i < config_.main_core.rob_entries + 4; ++i) {
    latest_dispatch = step(alu(10 + i % 4, {})).dispatch;
  }
  EXPECT_GT(latest_dispatch, stall_until);
}

}  // namespace
}  // namespace paradet::sim
