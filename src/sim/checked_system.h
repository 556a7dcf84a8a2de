// The checked system of fig. 3 — a main out-of-order core with its cache
// hierarchy, coupled to N checker cores through the partitioned load-store
// log, the load forwarding unit and the register checkpoint unit. One
// run_job() call simulates a program to completion (or an instruction
// budget), producing the performance, delay and detection statistics that
// the paper's figures are built from.
//
// SimJob::mode also selects the *unchecked baseline* (detection disabled),
// which is the normalisation denominator for all slowdown figures, and the
// checkpoint-only mode of Figure 10 (infinitely fast checkers).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "arch/interpreter.h"
#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/detection.h"
#include "core/fault_injection.h"
#include "core/recovery.h"
#include "isa/assembler.h"
#include "sim/uop_info.h"
#include "sim/warm_state.h"

namespace paradet::sim {

/// A program image ready to execute: functional memory plus entry point,
/// a shared reference to the immutable assembled image (whose predecoded
/// code span the simulation loops read directly — never copied), and the
/// shared per-static-instruction crack/classification metadata. The memory
/// gets a contiguous flat backing over the program's data window, so the
/// common access is a bounds check + memcpy rather than a page-map probe.
struct LoadedProgram {
  arch::SparseMemory memory;
  Addr entry = 0;
  AssembledImage image;
  std::shared_ptr<const ProgramStatics> statics;

  /// Null-image safe (a hand-built program without a loader-produced image
  /// simply has an empty predecode span and falls back to dynamic decode).
  const isa::PredecodedImage& predecoded() const {
    static const isa::PredecodedImage kEmpty{};
    return image != nullptr ? image->predecoded : kEmpty;
  }
};

/// Materialises an assembled image into simulator memory. The shared-image
/// overload is the campaign path: the program (and any WarmState captured
/// from it) co-owns the image, per-image ProgramStatics are computed once
/// process-wide and shared, and repeated loads of the same image cost
/// refcount traffic plus the data-section copy — not a predecode copy and
/// statics rebuild per run.
LoadedProgram load_program(AssembledImage image);

/// Borrowing overload for callers holding a bare Assembled (tests, one-off
/// runs): the returned program references `assembled` without owning it —
/// `assembled` must outlive the program and anything captured from it —
/// and ProgramStatics are computed fresh per call.
LoadedProgram load_program(const isa::Assembled& assembled);

/// Result of one simulation run.
struct RunResult {
  // Program outcome.
  arch::Trap exit_trap = arch::Trap::kNone;
  std::uint64_t instructions = 0;
  std::uint64_t uops = 0;
  /// Architectural state when the program stopped (for equivalence checks
  /// against the golden interpreter).
  arch::ArchState final_state;

  // Main-core timing.
  Cycle main_done_cycle = 0;  ///< commit cycle of the last instruction.
  /// When the final outstanding check validated; termination of the
  /// program is held until this point (§IV-H).
  Cycle all_checked_cycle = 0;
  double ipc = 0.0;  ///< instructions / main_done_cycle.

  // Detection results.
  bool error_detected = false;
  std::optional<core::DetectionEvent> first_error;
  /// Start checkpoint of the first failing segment: proven correct by the
  /// strong-induction chain, it is the restore point for recovery
  /// (core/recovery.h, the paper's §VIII extension).
  std::optional<core::RegisterCheckpoint> recovery_checkpoint;
  /// Per-entry detection delays, ns (Figures 8, 11, 12).
  Histogram delay_ns;
  std::uint64_t segments = 0;
  std::uint64_t seals_full = 0;
  std::uint64_t seals_timeout = 0;
  std::uint64_t seals_interrupt = 0;
  std::uint64_t seals_drain = 0;
  std::uint64_t checkpoints_taken = 0;

  // Stall accounting.
  Cycle checkpoint_stall_cycles = 0;
  Cycle log_full_stall_cycles = 0;

  /// Order-independent digest of the final functional memory
  /// (arch::SparseMemory::digest). Register/pc comparison alone cannot see
  /// corruption that only reached memory; fault classification must
  /// compare this too (see classify_fault_outcome).
  std::uint64_t mem_digest = 0;

  // Component statistics (cache hit rates, mispredicts, ...).
  Counters counters;

  /// Convenience: wall-clock nanoseconds of the main core's execution.
  double runtime_ns(std::uint64_t main_mhz) const {
    return cycles_to_ns(main_done_cycle, main_mhz);
  }
};

/// What the simulated machine is, reduced to the three shapes every driver
/// actually runs: the full checked system, the checkpoint-only ablation of
/// Figure 10, and the unchecked normalisation baseline. Replaces ad-hoc
/// flag twiddling (`config.detection.enabled = false; ...`) at call sites.
enum class SimMode : std::uint8_t {
  kBaseline,        ///< detection fully disabled (slowdown denominator).
  kCheckpointOnly,  ///< log + checkpoints, infinitely fast checkers.
  kChecked,         ///< the full scheme.
};

/// Returns `config` with the detection switches set for `mode`; all other
/// parameters pass through untouched.
SystemConfig apply_mode(SystemConfig config, SimMode mode);

/// One fully-described simulation: configuration, mode, budget, optional
/// fault plan and undo log, and the checker-replay thread count. The
/// mode, not the config's detection switches, says what the machine is.
struct SimJob {
  SystemConfig config;
  SimMode mode = SimMode::kChecked;
  std::uint64_t max_instructions = 0;
  core::FaultInjector* faults = nullptr;
  core::UndoLog* undo_log = nullptr;
  /// Concurrent replay workers (0 = inline). Byte-identical results at
  /// any value; see runtime::CheckerPool::bounded for the thread budget
  /// policy. Assigning a bare thread count works.
  CheckerExec checker;
};

/// Simulates `job` on an already-loaded program until HALT/FAULT/trap or
/// the instruction budget — the one way to run a simulation. The program
/// memory is mutated by stores; reload for repeated runs. With
/// `job.undo_log` set, the commit stage records write-ahead undo data for
/// every store, enabling rollback recovery (core/recovery.h); records of
/// validated segments are discarded as their checks pass. Results are
/// byte-identical at any `job.checker` thread count.
RunResult run_job(const SimJob& job, LoadedProgram& program);

/// Runs `job` against a fresh load of `assembled`.
RunResult run_job(const SimJob& job, const isa::Assembled& assembled);

/// Runs `job` against a fresh load of the shared `image` (the campaign
/// path: predecode and statics are shared, never copied).
RunResult run_job(const SimJob& job, const AssembledImage& image);

// --- Warm-state forking (fault campaigns) --------------------------------

/// Simulates the first `prefix_uops` micro-ops of `job` fault-free and
/// captures the complete machine state at the next macro-op boundary.
/// Returns null if the program ended (trap or instruction budget) before
/// reaching the prefix — callers fall back to full runs. `job.faults` is
/// ignored (the prefix is by definition fault-free) and `job.undo_log`
/// must be null (rollback-recovery campaigns replay from the start).
std::unique_ptr<WarmState> capture_warm_state(const SimJob& job,
                                              const isa::Assembled& assembled,
                                              std::uint64_t prefix_uops);

/// Shared-image capture: the WarmState co-owns `image`, so it may outlive
/// the caller's reference (campaign drivers pass AssemblyCache images).
std::unique_ptr<WarmState> capture_warm_state(const SimJob& job,
                                              const AssembledImage& image,
                                              std::uint64_t prefix_uops);

/// Resumes a run from `warm` with `faults` injected, to the same
/// instruction budget the capture ran under. The result is byte-identical
/// to a full run of the captured job with the same faults, provided every
/// fault triggers at or after the capture point
/// (`warm->tail_safe(*faults)`); callers must check that first. `faults`
/// may be null (fault-free tail). Thread-safe: many tails may fork the
/// same WarmState concurrently.
RunResult run_job_from(const WarmState& warm,
                       core::FaultInjector* faults = nullptr);

// --- Fault-outcome classification ----------------------------------------

/// What a fault campaign observed for one injected fault.
enum class FaultVerdict : std::uint8_t {
  kDetected,  ///< the checker flagged it.
  kMasked,    ///< no flag, and no architectural difference survived.
  kSilent,    ///< no flag, but registers, pc or *memory* differ (SDC).
};

std::string_view fault_verdict_name(FaultVerdict verdict);

/// Classifies a faulty run against its fault-free reference. A fault only
/// counts as masked when registers, pc, exit trap *and* the final-memory
/// digest all match: memory-only corruption (e.g. a store-value strike
/// whose target is never reloaded) is silent data corruption even though
/// every register compares clean.
FaultVerdict classify_fault_outcome(const RunResult& clean,
                                    const RunResult& faulty);

}  // namespace paradet::sim
