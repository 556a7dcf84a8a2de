// Unit tests for common/: statistics, clock domains, RNG determinism.
#include <gtest/gtest.h>

#include "common/clock_domain.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stats.h"

namespace paradet {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Summary, TracksMinMeanMax) {
  Summary s;
  for (double x : {4.0, 8.0, 6.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 6.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(Summary, MergeCombines) {
  Summary a, b;
  a.add(1.0);
  a.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Histogram, BinningAndDensity) {
  Histogram h(10.0, 5);  // bins [0,10) [10,20) ... [40,50)
  h.add(5.0);
  h.add(15.0);
  h.add(15.5);
  h.add(100.0);  // overflow
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.summary().count(), 4u);
  EXPECT_DOUBLE_EQ(h.summary().max(), 100.0);
  // Density integrates to count-in-range / total.
  double integral = 0;
  for (std::size_t i = 0; i < h.bins(); ++i) integral += h.density(i) * 10.0;
  EXPECT_NEAR(integral, 3.0 / 4.0, 1e-12);
}

TEST(Histogram, FractionBelow) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.fraction_below(50.0), 0.5, 1e-12);
  EXPECT_NEAR(h.fraction_below(100.0), 1.0, 1e-12);
}

TEST(Histogram, MergeAddsCountsOverflowAndSummary) {
  Histogram a(10.0, 5), b(10.0, 5);
  a.add(5.0);
  a.add(100.0);  // overflow
  b.add(5.0);
  b.add(15.0);
  a.merge(b);
  EXPECT_EQ(a.bin_count(0), 2u);
  EXPECT_EQ(a.bin_count(1), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.summary().count(), 4u);
  EXPECT_DOUBLE_EQ(a.summary().max(), 100.0);
}

TEST(Histogram, MergeGrowsToWiderBinVector) {
  Histogram narrow(10.0, 2), wide(10.0, 5);
  wide.add(45.0);
  narrow.add(5.0);
  narrow.merge(wide);
  EXPECT_EQ(narrow.bins(), 5u);
  EXPECT_EQ(narrow.bin_count(0), 1u);
  EXPECT_EQ(narrow.bin_count(4), 1u);
}

TEST(Histogram, MergeIntoEmptyDefaultAdoptsShape) {
  Histogram accumulator;  // default shape: 1 bin of width 1.
  Histogram produced(100.0, 64);
  produced.add(250.0);
  accumulator.merge(produced);
  EXPECT_DOUBLE_EQ(accumulator.bin_width(), 100.0);
  EXPECT_EQ(accumulator.bins(), 64u);
  EXPECT_EQ(accumulator.bin_count(2), 1u);
}

TEST(Counters, MergeAccumulatesAllNames) {
  Counters a, b;
  a.inc("hits", 3);
  b.inc("hits", 2);
  b.inc("misses", 7);
  a.merge(b);
  EXPECT_EQ(a.get("hits"), 5u);
  EXPECT_EQ(a.get("misses"), 7u);
}

TEST(Counters, IncrementAndLookup) {
  Counters c;
  c.inc("a");
  c.inc("a", 4);
  c.inc("b", 2);
  EXPECT_EQ(c.get("a"), 5u);
  EXPECT_EQ(c.get("b"), 2u);
  EXPECT_EQ(c.get("missing"), 0u);
  const auto sorted = c.sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].first, "a");
}

TEST(ClockDomain, CheckerAtGigahertz) {
  // 1 GHz checker under a 3.2 GHz global clock: 10 local cycles span 32
  // global cycles.
  const ClockDomain domain(1000, 3200);
  EXPECT_EQ(domain.to_global(10), 32u);
  EXPECT_EQ(domain.to_local(32), 10u);
  // Rounding is up: a single local cycle still takes ceil(3.2) = 4.
  EXPECT_EQ(domain.to_global(1), 4u);
}

TEST(ClockDomain, RoundTripNeverLosesTime) {
  const ClockDomain domain(125, 3200);  // 25.6 global per local.
  for (Cycle local = 0; local < 1000; ++local) {
    EXPECT_GE(domain.to_local(domain.to_global(local)), local);
  }
}

TEST(ClockDomain, CyclesToNs) {
  EXPECT_DOUBLE_EQ(cycles_to_ns(3200, 3200), 1000.0);
  EXPECT_DOUBLE_EQ(cycles_to_ns(16, 3200), 5.0);
}

TEST(SplitMix64, DeterministicAcrossInstances) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, BoundsRespected) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Config, TableOneDefaults) {
  const SystemConfig cfg = SystemConfig::standard();
  EXPECT_EQ(cfg.main_core.freq_mhz, 3200u);
  EXPECT_EQ(cfg.main_core.rob_entries, 40u);
  EXPECT_EQ(cfg.main_core.iq_entries, 32u);
  EXPECT_EQ(cfg.main_core.lq_entries, 16u);
  EXPECT_EQ(cfg.main_core.sq_entries, 16u);
  EXPECT_EQ(cfg.main_core.checkpoint_latency_cycles, 16u);
  EXPECT_EQ(cfg.checker.num_cores, 12u);
  EXPECT_EQ(cfg.checker.freq_mhz, 1000u);
  EXPECT_EQ(cfg.log.total_bytes, 36u * 1024);
  EXPECT_EQ(cfg.log.segments, 12u);
  EXPECT_EQ(cfg.log.instruction_timeout, 5000u);
  EXPECT_EQ(cfg.log.segment_bytes(), 3u * 1024);
  EXPECT_EQ(cfg.l2.size_bytes, 1024u * 1024);
  EXPECT_EQ(cfg.dram.tCAS, 11u);
}

}  // namespace
}  // namespace paradet
