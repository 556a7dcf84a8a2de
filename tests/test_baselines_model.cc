// Tests for the comparison baselines (lockstep, RMT) and the §VI-B/§VI-C
// area/power model, including the paper's headline numbers.
#include <gtest/gtest.h>

#include "baseline/lockstep.h"
#include "baseline/rmt.h"
#include "model/area_power.h"
#include "workloads/workloads.h"

namespace paradet {
namespace {

TEST(AreaModel, PaperHeadlineNumbers) {
  const auto area = model::estimate_area(SystemConfig::standard());
  // Twelve Rocket-class cores at 20nm: ~0.42 mm^2 (§VI-B).
  EXPECT_NEAR(area.checker_cores_mm2, 0.42, 0.01);
  // Detection SRAM: ~80 KiB -> ~0.08 mm^2 (§VI-B).
  EXPECT_NEAR(static_cast<double>(area.sram_bytes) / 1024.0, 80.0, 5.0);
  EXPECT_NEAR(area.sram_mm2, 0.08, 0.01);
  // ~24% overhead vs the bare core; ~16% including a 1 MiB L2.
  EXPECT_NEAR(area.overhead_without_l2(), 0.24, 0.015);
  EXPECT_NEAR(area.overhead_with_l2(), 0.16, 0.015);
}

TEST(AreaModel, ScalesWithCheckerCount) {
  SystemConfig half = SystemConfig::standard();
  half.checker.num_cores = 6;
  half.log.segments = 6;
  const auto full_area = model::estimate_area(SystemConfig::standard());
  const auto half_area = model::estimate_area(half);
  EXPECT_NEAR(half_area.checker_cores_mm2,
              full_area.checker_cores_mm2 / 2.0, 1e-9);
  EXPECT_LT(half_area.overhead_without_l2(),
            full_area.overhead_without_l2());
}

TEST(PowerModel, PaperHeadlineNumbers) {
  const auto power = model::estimate_power(SystemConfig::standard());
  // 12 cores x 1000 MHz x 34 uW/MHz = 408 mW vs 3200 MHz x 800 uW/MHz
  // = 2560 mW -> ~16% (§VI-C upper bound).
  EXPECT_NEAR(power.checker_cores_mw, 408.0, 1.0);
  EXPECT_NEAR(power.main_core_mw, 2560.0, 1.0);
  EXPECT_NEAR(power.overhead(), 0.16, 0.005);
}

TEST(PowerModel, ScalesWithFrequency) {
  SystemConfig slow = SystemConfig::standard();
  slow.checker.freq_mhz = 500;
  const auto power = model::estimate_power(slow);
  EXPECT_NEAR(power.overhead(), 0.08, 0.005);
}

TEST(DetectionSram, BreakdownIsSumOfParts) {
  const SystemConfig cfg = SystemConfig::standard();
  const auto bytes = model::detection_sram_bytes(cfg);
  // log 36K + L0s 24K + shared L1 16K + LFU + checkpoints.
  EXPECT_GT(bytes, 36u * 1024 + 24u * 1024 + 16u * 1024);
  EXPECT_LT(bytes, 90u * 1024);
}

TEST(Lockstep, NegligibleSlowdownFastDetection) {
  const auto workload =
      workloads::make_bitcount(workloads::Scale{.factor = 0.1});
  const auto assembled = workloads::assemble_or_die(workload);
  const auto result =
      baseline::run_lockstep(SystemConfig::standard(), assembled, 200000);
  EXPECT_DOUBLE_EQ(result.slowdown, 1.0);
  EXPECT_DOUBLE_EQ(result.area_overhead, 1.0);   // duplicate core.
  EXPECT_DOUBLE_EQ(result.power_overhead, 1.0);  // duplicate core.
  // Detection within a few cycles (fig. 1(d), §VI: "within a few cycles").
  EXPECT_LT(result.detection_latency_ns, 10.0);
  EXPECT_GT(result.cycles, 0u);
}

TEST(Rmt, SignificantSlowdownNoHardFaultCover) {
  // Warm caches (several passes) so the width contention is visible, as
  // it is in steady state on the real scheme.
  const auto workload =
      workloads::make_bitcount(workloads::Scale{.factor = 0.4});
  const auto assembled = workloads::assemble_or_die(workload);
  const auto rmt =
      baseline::run_rmt(SystemConfig::standard(), assembled, 400000);
  sim::SimJob base;
  base.config = SystemConfig::standard();
  base.mode = sim::SimMode::kBaseline;
  base.max_instructions = 400000;
  const auto unprotected = sim::run_job(base, assembled);
  const double slowdown = static_cast<double>(rmt.cycles) /
                          static_cast<double>(unprotected.main_done_cycle);
  // Mukherjee et al. report ~32% average; compute-bound kernels sit at
  // the high end. Assert the qualitative band.
  EXPECT_GT(slowdown, 1.15);
  EXPECT_LT(slowdown, 3.0);
  EXPECT_FALSE(rmt.covers_hard_faults);
  EXPECT_EQ(rmt.instructions, unprotected.instructions);
}

TEST(Rmt, OverheadIsBroadBased) {
  // RMT hurts across the board: compute-bound kernels lose issue width,
  // memory-bound kernels lose half their in-flight window (the trailing
  // copies occupy ROB entries), which costs memory-level parallelism --
  // the observation behind Smolens et al.'s complexity arguments.
  const auto compute =
      workloads::make_bitcount(workloads::Scale{.factor = 0.4});
  const auto memory =
      workloads::make_randacc(workloads::Scale{.factor = 0.1});
  const auto compute_asm = workloads::assemble_or_die(compute);
  const auto memory_asm = workloads::assemble_or_die(memory);
  const SystemConfig cfg = SystemConfig::standard();
  sim::SimJob base;
  base.config = cfg;
  base.mode = sim::SimMode::kBaseline;
  base.max_instructions = 400000;
  const double compute_slowdown =
      static_cast<double>(baseline::run_rmt(cfg, compute_asm, 400000).cycles) /
      static_cast<double>(sim::run_job(base, compute_asm).main_done_cycle);
  base.max_instructions = 200000;
  const double memory_slowdown =
      static_cast<double>(baseline::run_rmt(cfg, memory_asm, 200000).cycles) /
      static_cast<double>(sim::run_job(base, memory_asm).main_done_cycle);
  EXPECT_GT(compute_slowdown, 1.1);
  EXPECT_GT(memory_slowdown, 1.1);
  EXPECT_LT(compute_slowdown, 2.5);
  EXPECT_LT(memory_slowdown, 2.5);
}

TEST(FigureOneComparison, HeterogeneousBeatsBothOnCombinedCost) {
  // Fig. 1(d): lockstep = large area+energy; RMT = large performance+
  // energy; the heterogeneous scheme is small on all three.
  const auto area = model::estimate_area(SystemConfig::standard());
  const auto power = model::estimate_power(SystemConfig::standard());
  EXPECT_LT(area.overhead_without_l2(), model::kLockstepCosts.area_overhead);
  EXPECT_LT(power.overhead(), model::kLockstepCosts.power_overhead);
}

}  // namespace
}  // namespace paradet
