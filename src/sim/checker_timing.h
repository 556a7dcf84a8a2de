// Timing model for the in-order checker cores (§IV-B, fig. 4): a 4-stage
// scalar pipeline with full forwarding, a private L0 instruction cache, an
// L1 instruction cache shared by all checker cores, and no data cache (all
// data reads hit the segment's log SRAM). All cycles here are *checker*
// cycles; the simulation run converts to the global domain via ClockDomain.
//
// Modelling notes:
//  * The shared L1I is modelled as a shared tag array without port
//    contention; an L0 miss pays a fixed penalty to reach it and an L1
//    miss pays the main L2's latency (the instructions were fetched by the
//    main core recently, so L2 hits are the common case, as the paper
//    argues in §IV-B).
//  * Taken branches pay a fixed bubble (resolve in EX of a 4-stage
//    pipeline; the tiny cores have no branch predictor).
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "core/checker_engine.h"
#include "sim/uop_info.h"

namespace paradet::sim {

/// Instruction-cache tag state shared between all checker cores.
class SharedCheckerIcache {
 public:
  SharedCheckerIcache(std::uint64_t size_bytes, unsigned line_bytes = 64,
                      unsigned assoc = 4);

  /// Returns true on hit; on miss the line is filled (the caller charges
  /// the next-level latency).
  bool access(Addr line_addr);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };
  std::size_t sets_;
  unsigned assoc_;
  unsigned line_shift_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// One checker core's timing state (the L0 cache persists across the
/// segments this core checks, capturing code reuse between checks).
class CheckerCoreTiming {
 public:
  CheckerCoreTiming(const CheckerConfig& config, SharedCheckerIcache& shared,
                    unsigned l2_latency_checker_cycles);

  /// Rewiring copy for warm-state capture: duplicates `other`'s L0 state
  /// and counters but shares the given L1I (a copy of `other`'s).
  CheckerCoreTiming(const CheckerCoreTiming& other,
                    SharedCheckerIcache& shared)
      : config_(other.config_),
        shared_(shared),
        l2_latency_(other.l2_latency_),
        l0_mask_(other.l0_mask_),
        l0_tags_(other.l0_tags_),
        l0_valid_(other.l0_valid_),
        l0_hits_(other.l0_hits_),
        l0_misses_(other.l0_misses_) {}

  struct WalkResult {
    /// Total checker cycles from wakeup to checkpoint validation done.
    Cycle local_cycles = 0;
    /// For each consumed log entry, the local cycle its check completed.
    std::vector<Cycle> entry_check_cycles;
  };

  /// Computes the pipeline timing of re-executing `trace` and checking
  /// `total_entries` log entries. `statics`, when given, supplies the
  /// per-static-instruction crack/classification metadata for traced PCs
  /// inside the predecoded image (out-of-image records recompute it).
  WalkResult walk(const std::vector<core::CheckerInstRecord>& trace,
                  std::size_t total_entries,
                  const ProgramStatics* statics = nullptr);

  std::uint64_t l0_hits() const { return l0_hits_; }
  std::uint64_t l0_misses() const { return l0_misses_; }

 private:
  bool l0_access(Addr line_addr);

  CheckerConfig config_;
  SharedCheckerIcache& shared_;
  unsigned l2_latency_;
  /// Direct-mapped L0 tags (power-of-two line count, mask-indexed).
  std::uint64_t l0_mask_ = 0;
  std::vector<std::uint64_t> l0_tags_;
  std::vector<bool> l0_valid_;
  std::uint64_t l0_hits_ = 0;
  std::uint64_t l0_misses_ = 0;
};

}  // namespace paradet::sim
