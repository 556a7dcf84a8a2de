// Timing model of the 3-wide out-of-order main core (Table I).
//
// The model is dependence-driven: micro-ops are presented in program order
// and each is assigned fetch / dispatch / issue / complete cycles from
// front-end bandwidth, i-cache behaviour, branch prediction, structural
// limits (ROB / IQ / LQ / SQ / functional units) and operand readiness.
// Commit cycles are computed by the caller (commit interacts with the
// load-store log and checkpointing) and fed back via retire(), which is
// how commit-side stalls create back-pressure: retire cycles bound ROB
// occupancy, which bounds dispatch, which stalls fetch.
//
// Wrong-path micro-ops are not simulated: they never commit, so they never
// reach the load-store log or the checkers, and their cost is folded into
// the redirect penalty. Memory disambiguation defaults to a trained
// store-set model (loads issue freely and forward from the youngest older
// store that fully contains them); the conservative
// wait-for-all-older-store-addresses scheme is available as an ablation
// (MainCoreConfig::perfect_memory_disambiguation).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "isa/isa.h"
#include "mem/cache.h"
#include "sim/branch_predictor.h"
#include "sim/uop_info.h"

namespace paradet::sim {

/// Everything the timing model needs to know about one micro-op.
/// (CtrlKind lives in sim/uop_info.h with the rest of the static
/// instruction metadata.)
/// Register indices live in [0, 2*kNumArchRegs): the upper half is a
/// second hardware thread context, used by the redundant-multithreading
/// baseline (the paradet scheme itself only uses context 0).
struct UopDesc {
  isa::ExecClass cls = isa::ExecClass::kIntAlu;
  UopRegs regs;
  Addr pc = 0;
  UopSeq seq = 0;
  /// First micro-op of its macro-op (fetch/decode slots are per macro-op
  /// for cracking, but each micro-op consumes a dispatch slot).
  bool first_of_macro = true;
  CtrlKind ctrl = CtrlKind::kNone;
  bool taken = false;  ///< resolved direction (conditional branches).
  Addr target = 0;     ///< resolved target (control ops).
  bool is_load = false;
  bool is_store = false;
  Addr mem_addr = 0;
  std::uint8_t mem_size = 0;
};

struct UopTiming {
  Cycle fetch = 0;
  Cycle dispatch = 0;
  Cycle issue = 0;
  Cycle complete = 0;
  /// Index of the integer ALU that executed this micro-op (-1 if another
  /// unit). Used by the hard-fault (stuck-at) injection model.
  int int_alu_unit = -1;
  bool store_forwarded = false;
  bool mispredicted = false;
};

class OoOCore {
 public:
  OoOCore(const SystemConfig& config, mem::Cache& l1i, mem::Cache& l1d);

  /// Rewiring copy for warm-state capture: duplicates `other`'s complete
  /// timing state but reads through the given caches, which must
  /// themselves be copies of `other`'s.
  OoOCore(const OoOCore& other, mem::Cache& l1i, mem::Cache& l1d);
  OoOCore& operator=(const OoOCore&) = delete;

  /// Schedules the next micro-op in program order. Must be followed by
  /// exactly one retire() for this micro-op before the next schedule().
  UopTiming schedule(const UopDesc& desc);

  /// Informs the core of the micro-op's commit cycle (computed by the
  /// caller from complete + commit bandwidth + detection-side stalls).
  /// Commit cycles must be non-decreasing across retires (in-order
  /// commit); the LQ/SQ occupancy walk relies on the ROB window's commit
  /// cycles being sorted.
  void retire(Cycle commit_cycle);

  std::uint64_t branch_mispredicts() const { return mispredicts_; }
  std::uint64_t uops_scheduled() const { return scheduled_; }
  const MainCoreConfig& config() const { return config_; }

 private:
  /// The schedule()d micro-op awaiting its retire(): just what retire
  /// needs to file it in the ROB window and the IQ.
  struct InFlight {
    Cycle issue = 0;
    bool is_load = false;
    bool is_store = false;
  };

  /// One ROB window slot. The LQ and SQ hold exactly the window's loads
  /// and stores that have not committed, so the flags are all they need.
  struct RobSlot {
    Cycle commit = 0;
    bool is_load = false;
    bool is_store = false;
  };

  struct StoreWindowEntry {
    Addr addr = 0;
    std::uint8_t size = 0;
    Cycle data_ready = 0;
    UopSeq seq = 0;
  };

  /// Per-cycle issue-slot accounting for a pool of pipelined units: up to
  /// `units` micro-ops may start per cycle. Unlike a greedy
  /// earliest-free-unit reservation, this correctly lets younger micro-ops
  /// issue in the idle cycles before an older op's (late) issue slot.
  class IssueSlots {
   public:
    explicit IssueSlots(unsigned units) : units_(units) {}

    /// Finds the first cycle >= `earliest` with a free slot, reserves it,
    /// and returns it. `slot_out` receives the slot index within the
    /// cycle (stable stand-in for "which unit", used by fault injection).
    Cycle reserve(Cycle earliest, int* slot_out = nullptr) {
      Cycle cycle = earliest;
      for (;;) {
        Slot& slot = table_[cycle & kMask];
        if (slot.cycle != cycle) {
          slot.cycle = cycle;
          slot.count = 1;
          if (slot_out != nullptr) *slot_out = 0;
          return cycle;
        }
        if (slot.count < units_) {
          if (slot_out != nullptr) *slot_out = static_cast<int>(slot.count);
          ++slot.count;
          return cycle;
        }
        ++cycle;
      }
    }

   private:
    static constexpr std::size_t kMask = 4095;
    struct Slot {
      Cycle cycle = kCycleNever;
      unsigned count = 0;
    };
    unsigned units_;
    std::array<Slot, kMask + 1> table_{};
  };

  /// IQ occupancy: the issue cycles of retired micro-ops, counted while
  /// they are still ahead of the dispatch cycle the queue was last
  /// drained to. Deadlines up to kSpan cycles ahead are per-cycle counts
  /// in a ring indexed by cycle, so filing one is an increment; a later
  /// one (the tail of a dependent miss chain) goes to a short sorted
  /// overflow list instead of aliasing an earlier cycle's slot.
  class IssueDeadlines {
   public:
    /// Files the issue cycle of a micro-op dispatched at or after the
    /// last admit() result, hence after the drain point.
    void add(Cycle issue);

    /// The first dispatch cycle from `dispatch` at which fewer than
    /// `entries` deadlines lie in the future. Candidates must not
    /// decrease across calls. When the queue is full, dispatch retries
    /// one cycle past the earliest deadline.
    Cycle admit(Cycle dispatch, unsigned entries);

   private:
    static constexpr std::size_t kSpan = 1024;
    static constexpr Cycle kMask = kSpan - 1;

    void drain(Cycle through);
    Cycle earliest() const;

    /// counts_[c & kMask] is the number of deadlines at cycle c, for c in
    /// (drained_, drained_ + kSpan]; every other slot is zero.
    std::array<std::uint32_t, kSpan> counts_{};
    std::uint32_t ring_live_ = 0;  ///< sum of counts_.
    Cycle drained_ = 0;            ///< every deadline <= this is gone.
    std::vector<Cycle> overflow_;  ///< descending: earliest at the back.
  };

  Cycle window_queue_limit(Cycle dispatch, bool RobSlot::*kind,
                           unsigned in_window, unsigned entries) const;

  void fetch_bubble(Cycle from, unsigned cycles);
  Cycle apply_queue_limits(Cycle dispatch);
  void resolve_control(const UopDesc& desc, const UopTiming& timing,
                       UopTiming* out);

  /// The member-wise copy, still reading through `other`'s caches; only
  /// the rewiring copy may use it.
  OoOCore(const OoOCore& other) = default;

  MainCoreConfig config_;
  mem::Cache* l1i_;
  mem::Cache* l1d_;
  TournamentPredictor predictor_;

  // Front end.
  Cycle fetch_cycle_ = 0;
  unsigned fetched_in_cycle_ = 0;
  Cycle redirect_min_ = 0;
  Addr last_fetch_line_ = ~Addr{0};

  // Dispatch.
  Cycle last_dispatch_cycle_ = 0;
  unsigned dispatched_in_cycle_ = 0;

  // Execution resources. Pipelined throughput is modelled with issue
  // slots; unpipelined ops (div/sqrt) additionally serialise their class
  // through a busy-until cycle.
  Cycle reg_ready_[2 * kNumArchRegs] = {};
  IssueSlots int_slots_;
  IssueSlots fp_slots_;
  IssueSlots muldiv_slots_;
  Cycle fp_unpipelined_busy_ = 0;
  Cycle muldiv_unpipelined_busy_ = 0;

  // In-flight window: the last rob_entries retired micro-ops, a fixed ring
  // in commit order. A micro-op that has left it committed no later than
  // the oldest occupant, and once the ring is full every dispatch
  // candidate is past that occupant's commit, so the LQ and SQ need look
  // no further than the ring.
  std::vector<RobSlot> rob_ring_;
  std::size_t rob_head_ = 0;   ///< index of the oldest occupant.
  std::size_t rob_count_ = 0;  ///< occupants; ring is full at rob_entries.
  unsigned rob_loads_ = 0;     ///< loads among the occupants.
  unsigned rob_stores_ = 0;    ///< stores among the occupants.
  IssueDeadlines iq_;
  Cycle last_retired_commit_ = 0;
  // Recent stores for forwarding/disambiguation (at most sq_entries), a
  // fixed ring scanned youngest-first on every load — contiguous storage,
  // not a deque, because the scan is on the load hot path.
  std::vector<StoreWindowEntry> store_ring_;
  std::size_t store_head_ = 0;   ///< index of the oldest store.
  std::size_t store_count_ = 0;  ///< occupants; ring is full at sq_entries.
  Cycle last_store_agu_ = 0;

  // Pending schedule()d micro-op awaiting retire().
  bool pending_valid_ = false;
  InFlight pending_;

  std::uint64_t mispredicts_ = 0;
  std::uint64_t scheduled_ = 0;
};

}  // namespace paradet::sim
