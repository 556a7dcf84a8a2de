// Warm simulation state for fault campaigns (copy-on-write forking).
//
// A fault campaign runs the same program hundreds of times, varying only a
// fault that triggers late in the run. Everything before the trigger is
// byte-identical across trials, so a campaign can simulate that prefix
// once, capture a WarmState, and resume each faulty tail from it:
//
//   auto warm = capture_warm_state(job, assembled, prefix_uops);
//   RunResult r = run_job_from(*warm, &injector);   // per trial
//
// The capture is exact — every piece of simulated state the commit loop
// and the checker pipeline carry is either value-copied or (for the
// functional memory) frozen behind arch::SparseMemory's copy-on-write
// fork, so a resumed run is byte-identical to a full run whose faults all
// trigger at or after the capture point (core::FaultInjector::tail_safe).
//
// The tricky part is that the timing machine is a web of references:
// caches point at the next level, the core points at its caches, checker
// timing cores share an L1I tag array. The structs here own *rewired*
// copies — each copy constructor duplicates the value state and re-points
// the references at the copy's own members (see the rewiring copy
// constructors on mem::Cache, sim::OoOCore and sim::CheckerCoreTiming).
//
// A WarmState is immutable after capture. Forking tails off one WarmState
// from several threads concurrently is safe: the shared memory pages are
// refcounted atomically and never written through the WarmState itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/memory.h"
#include "arch/state.h"
#include "common/config.h"
#include "common/types.h"
#include "core/checkpoint.h"
#include "core/detection.h"
#include "core/fault_injection.h"
#include "core/load_forwarding_unit.h"
#include "core/load_store_log.h"
#include "isa/assembler.h"
#include "isa/predecode.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/prefetcher.h"
#include "sim/checker_timing.h"
#include "sim/ooo_core.h"
#include "sim/uop_info.h"

namespace paradet::sim {

/// Shared immutable assembled image (what runtime::AssemblyCache hands
/// out): LoadedProgram and WarmState co-own it instead of copying the
/// predecoded code span, so repeated campaign loads cost refcount traffic.
using AssembledImage = std::shared_ptr<const isa::Assembled>;

/// The main core's timing machine — DRAM, cache hierarchy, out-of-order
/// core — as one ownable unit. The members reference one another
/// (dram_level -> dram, l2 -> dram_level, l1i/l1d -> l2, core -> l1i/l1d),
/// so copying rewires: the copy's levels point at the copy's members.
struct MachineState {
  explicit MachineState(const SystemConfig& config)
      : dram(config.dram, config.main_core.freq_mhz),
        dram_level(dram),
        l2(config.l2, dram_level),
        l1i(config.l1i, l2),
        l1d(config.l1d, l2),
        core(config, l1i, l1d),
        use_prefetcher(config.l2_stride_prefetcher) {
    if (use_prefetcher) l2.set_prefetcher(&prefetcher);
  }

  /// Rewiring copy: duplicates every level's timing state, re-pointed at
  /// this copy's own hierarchy.
  MachineState(const MachineState& other)
      : dram(other.dram),
        dram_level(dram),
        l2(other.l2, dram_level),
        prefetcher(other.prefetcher),
        l1i(other.l1i, l2),
        l1d(other.l1d, l2),
        core(other.core, l1i, l1d),
        use_prefetcher(other.use_prefetcher) {
    if (use_prefetcher) l2.set_prefetcher(&prefetcher);
  }

  MachineState& operator=(const MachineState&) = delete;

  mem::DramModel dram;
  mem::DramLevel dram_level;
  mem::Cache l2;
  mem::StridePrefetcher prefetcher;
  mem::Cache l1i;
  mem::Cache l1d;
  OoOCore core;
  bool use_prefetcher;
};

/// The order-dependent half of a SegmentPipeline: absorber state plus the
/// producer's ordinal bookkeeping. Exported by
/// SegmentPipeline::warm_state() after finish() drained every in-flight
/// segment, and adopted by the pipeline's warm constructor.
struct PipelineWarm {
  PipelineWarm(const SharedCheckerIcache& icache,
               const core::DetectionController& ctrl)
      : shared_icache(icache), controller(ctrl) {}
  PipelineWarm(const PipelineWarm&) = delete;
  PipelineWarm& operator=(const PipelineWarm&) = delete;

  SharedCheckerIcache shared_icache;
  /// Rewired to this struct's own shared_icache.
  std::vector<CheckerCoreTiming> checker_cores;
  core::DetectionController controller;
  std::vector<Cycle> segment_release;
  Cycle all_checked = 0;
  std::optional<core::RegisterCheckpoint> recovery_checkpoint;
  std::uint64_t validated_frontier = 0;
  /// Segments produced so far; also the ordinal of the next one.
  std::uint64_t produced = 0;
  std::vector<std::int64_t> last_ordinal_for_index;
};

/// A complete mid-run snapshot of a simulation run, captured at
/// a macro-op boundary. Deliberately neither copyable nor movable: the
/// MachineState inside is self-referential, and campaign code shares one
/// capture across many tails anyway (std::unique_ptr<WarmState>).
struct WarmState {
  WarmState(const SystemConfig& cfg, CheckerExec checker_src,
            const MachineState& machine_src, const core::LoadStoreLog& log_src,
            const core::LoadForwardingUnit& lfu_src,
            const core::CheckpointUnit& checkpoint_unit_src)
      : config(cfg),
        checker(checker_src),
        machine(machine_src),
        log(log_src),
        lfu(lfu_src),
        checkpoint_unit(checkpoint_unit_src) {}
  WarmState(const WarmState&) = delete;
  WarmState& operator=(const WarmState&) = delete;

  /// True when every fault in `faults` triggers at or after this capture
  /// point, i.e. a run resumed from here observes exactly the faults a
  /// full run would.
  bool tail_safe(const core::FaultInjector& faults) const {
    return faults.tail_safe(uops, checkpoint_index, produced_segments());
  }

  std::uint64_t produced_segments() const {
    return pipeline == nullptr ? 0 : pipeline->produced;
  }

  /// The job shape the capture ran under (config is post-apply_mode).
  SystemConfig config;
  /// Checker-replay execution shape (replay threads) the capture ran
  /// under; resumed tails inherit it. Host-side only — forking into a
  /// different shape stays byte-identical, this just preserves intent.
  CheckerExec checker;
  std::uint64_t max_instructions = 0;

  // Functional state. Both memories are CoW-frozen: resumed runs fork
  // them, never write through them. The assembled image and its statics
  // are shared with the LoadedProgram the capture consumed (and with the
  // process-wide caches) — holding a WarmState keeps them alive.
  arch::SparseMemory memory;          ///< working memory at capture.
  arch::SparseMemory fetch_snapshot;  ///< pristine start-of-run code image.
  AssembledImage image;
  std::shared_ptr<const ProgramStatics> statics;
  arch::ArchState state;

  // Commit-loop position.
  std::uint64_t instructions = 0;
  std::uint64_t uops = 0;  ///< == the next micro-op's sequence number.
  std::uint64_t checkpoint_index = 0;
  Cycle commit_block = 0;
  Cycle next_interrupt = 0;
  Cycle commit_last = 0;       ///< CommitTracker position.
  unsigned commit_count = 0;   ///< micro-ops committed in commit_last.
  Cycle checkpoint_stall_cycles = 0;
  Cycle log_full_stall_cycles = 0;
  core::RegisterCheckpoint last_checkpoint;

  // Timing state (rewired copies / value copies).
  MachineState machine;
  core::LoadStoreLog log;
  core::LoadForwardingUnit lfu;
  core::CheckpointUnit checkpoint_unit;

  /// Checker-side state; null when detection is disabled.
  std::unique_ptr<PipelineWarm> pipeline;
};

}  // namespace paradet::sim
