// System configuration. Defaults reproduce Table I of the paper:
// a 3-wide out-of-order main core at 3.2 GHz with a 40-entry ROB, paired
// with twelve 1 GHz in-order checker cores sharing a 36 KiB partitioned
// load-store log with a 5,000-instruction timeout.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace paradet {

/// Main out-of-order core parameters (Table I, "Main Core").
struct MainCoreConfig {
  std::uint64_t freq_mhz = 3200;  ///< 3.2 GHz.
  unsigned fetch_width = 3;
  unsigned commit_width = 3;
  unsigned rob_entries = 40;
  unsigned iq_entries = 32;
  unsigned lq_entries = 16;
  unsigned sq_entries = 16;
  unsigned int_phys_regs = 128;
  unsigned fp_phys_regs = 128;
  unsigned int_alus = 3;
  unsigned fp_alus = 2;
  unsigned muldiv_alus = 1;
  /// Commit pause while the architectural register file is checkpointed
  /// (two-ported file copying 32 registers from each of the int/fp files).
  unsigned checkpoint_latency_cycles = 16;
  /// Front-end refill penalty after a branch misprediction redirect.
  unsigned redirect_penalty_cycles = 3;
  /// Decode-stage redirect bubble for a predicted-taken branch missing BTB.
  unsigned btb_miss_penalty_cycles = 2;
  /// Fetch-to-dispatch depth (fetch/decode/rename stages).
  unsigned frontend_depth_cycles = 4;
  /// Memory dependence handling. True models a trained store-set style
  /// predictor (loads issue freely; a load still forwards from the youngest
  /// older store that fully contains it). False is the conservative scheme
  /// where loads wait for all older store addresses -- an ablation that
  /// kills memory-level parallelism on irregular workloads.
  bool perfect_memory_disambiguation = true;
};

/// Which direction-prediction model the front end runs. The tournament
/// predictor is the paper's Table I configuration; the others are fidelity
/// ablations (bench_fig_frontend_ablation) in the style of related
/// architectural-space-exploration simulators.
enum class FrontEndKind : std::uint8_t {
  kTournament,   ///< local/global/chooser (default, Table I).
  kGshare,       ///< one PHT indexed by pc ^ global history.
  kBimodal,      ///< one PHT indexed by pc alone.
  kAlwaysTaken,  ///< static predict-taken (BTB/RAS still model targets).
};

/// Tournament branch predictor parameters (Table I, "Tournament").
/// Every table size must be a power of two: the hot predict/update path
/// indexes with masks, never `%` (see valid_table_sizes).
struct BranchPredictorConfig {
  FrontEndKind kind = FrontEndKind::kTournament;
  unsigned local_entries = 2048;
  unsigned local_history_bits = 11;
  unsigned global_entries = 8192;
  unsigned chooser_entries = 2048;
  unsigned btb_entries = 2048;
  unsigned ras_entries = 16;

  /// True when every table is power-of-two sized (mask indexing is then
  /// exactly the `%` it replaced). sim::FrontEnd asserts this on
  /// construction; drivers that accept table sizes should check it first.
  bool valid_table_sizes() const;
};

/// One cache level. Defaults are overridden per level in SystemConfig.
struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  unsigned assoc = 2;
  unsigned line_bytes = 64;
  unsigned hit_latency = 2;
  unsigned mshrs = 6;
};

/// DDR3-1600 11-11-11-28 at an 800 MHz bus (Table I, "Memory").
struct DramConfig {
  std::uint64_t bus_mhz = 800;
  unsigned tCAS = 11;   ///< column access strobe latency, bus cycles.
  unsigned tRCD = 11;   ///< row-to-column delay.
  unsigned tRP = 11;    ///< row precharge.
  unsigned tRAS = 28;   ///< row active time.
  unsigned banks = 8;
  unsigned burst_cycles = 4;      ///< 64B line over a 64-bit DDR bus.
  std::uint64_t row_bytes = 8192; ///< open-row granularity.
};

/// Checker-core complex parameters (Table I, "Checker Cores").
struct CheckerConfig {
  unsigned num_cores = 12;
  std::uint64_t freq_mhz = 1000;  ///< 1 GHz.
  unsigned pipeline_stages = 4;
  /// Private per-core L0 instruction cache.
  std::uint64_t l0_icache_bytes = 2 * 1024;
  /// L1 instruction cache shared by all checker cores.
  std::uint64_t l1_icache_bytes = 16 * 1024;
  unsigned l0_hit_latency = 1;   ///< checker cycles.
  unsigned l0_miss_penalty = 2;  ///< extra checker cycles to reach shared L1.
  /// Cycles to validate the end-of-segment register checkpoint (64 regs,
  /// two comparator ports).
  unsigned checkpoint_validate_cycles = 32;
  /// Wake-up latency from sleep to first fetch, checker cycles.
  unsigned wakeup_cycles = 4;
  /// Taken-branch bubble in the 4-stage in-order pipeline.
  unsigned taken_branch_bubble = 2;
  /// Fidelity ablation: when true the checker cores model a small front
  /// end (sim::FrontEnd with `frontend` parameters) instead of paying the
  /// fixed bubble on every taken branch — only mispredicted control flow
  /// then stalls fetch. Default off, which is the paper's model ("the tiny
  /// cores have no branch predictor") and the byte-identical baseline.
  bool model_frontend = false;
  /// Front-end tables for model_frontend (scaled-down by default: the
  /// checker cores are area-constrained).
  BranchPredictorConfig frontend = small_frontend();

  static BranchPredictorConfig small_frontend() {
    BranchPredictorConfig config;
    config.local_entries = 256;
    config.local_history_bits = 8;
    config.global_entries = 512;
    config.chooser_entries = 256;
    config.btb_entries = 256;
    config.ras_entries = 8;
    return config;
  }
};

/// Partitioned load-store log parameters (Table I, "Log Size").
struct LogConfig {
  /// Total SRAM capacity across all segments: 36 KiB default.
  std::uint64_t total_bytes = 36 * 1024;
  /// One segment per checker core (one-to-one mapping, §IV-D).
  unsigned segments = 12;
  /// Bytes of SRAM consumed per log entry (8B value + 6B physical address
  /// + kind/size metadata, packed).
  unsigned entry_bytes = 16;
  /// Maximum committed instructions per segment before an early seal
  /// (§IV-J). Zero means no timeout (the paper's "infinite" setting).
  std::uint64_t instruction_timeout = 5000;

  std::uint64_t segment_bytes() const { return total_bytes / segments; }
  std::uint64_t entries_per_segment() const {
    return segment_bytes() / entry_bytes;
  }
};

/// Timer-interrupt modelling (§IV-G): interrupts force an early register
/// checkpoint at the next commit boundary so the checker cores observe the
/// same instruction stream split as the main core.
struct InterruptConfig {
  bool enabled = false;
  /// Interval between timer interrupts, in main-core cycles.
  Cycle interval_cycles = 1'000'000;
};

/// What the detection hardware does; used to build ablations.
struct DetectionConfig {
  /// Master switch. When false the machine is an unchecked core: no log,
  /// no checkpoints, no checker cores. This is the normalisation baseline
  /// for every slowdown figure.
  bool enabled = true;
  /// When false, the scheme runs checkpoint/log bookkeeping but models the
  /// checker cores as infinitely fast (segments free instantly). This is
  /// the configuration of Figure 10.
  bool simulate_checkers = true;
  /// When false, loads are forwarded to the log at commit directly from the
  /// (possibly corrupted) physical register instead of being duplicated at
  /// access time by the load forwarding unit. Ablation for §IV-C.
  bool load_forwarding_unit = true;
};

/// How the checker-replay half of one simulated run executes on the host:
/// the replay worker-thread count. Purely host-side — results are
/// byte-identical at any value (sim/segment_pipeline.h), only wall-clock
/// changes. Implicitly constructible from a bare thread count, so
/// `job.checker = threads` reads naturally.
struct CheckerExec {
  constexpr CheckerExec() = default;
  constexpr CheckerExec(unsigned t) : threads(t) {}  // NOLINT

  /// Concurrent replay workers (0 = inline replay at seal time).
  unsigned threads = 0;
};

/// Host-side execution options for campaign-style drivers (benches,
/// examples, sweeps). Orthogonal to the simulated SystemConfig: this
/// controls how many *host* worker threads the runtime uses, not anything
/// inside the modelled machine.
struct RuntimeOptions {
  /// Worker threads for runtime::ParallelRunner. 0 means "one per
  /// hardware thread" (resolved at runner construction).
  unsigned jobs = 0;

  /// `--checker-threads=N`: concurrent checker-replay workers *inside*
  /// each simulated run (sim::SegmentPipeline). 0 means inline replay at
  /// seal time (the legacy path). Results are byte-identical at any
  /// value; this only changes host-side execution. Drivers should clamp
  /// the request with runtime::CheckerPool::bounded so jobs × threads
  /// cannot oversubscribe the host.
  unsigned checker_threads = 0;

  /// Cross-process sharding (`--shard=K/N`): this process executes only
  /// campaign task indices with `index % shard_count == shard_index`.
  /// Per-task seeds are a pure function of (campaign seed, index), so the
  /// shards' random streams are exactly the unsharded campaign's, split.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;

  /// `--out=PATH`: write the campaign artifact (per-run results + merged
  /// aggregate, versioned JSON) for tools/merge_results.
  std::string out_path;

  /// `--checkpoint=PATH`: persist every completed run as an O(record)
  /// append to the checkpoint journal at PATH, so an interrupted campaign
  /// restarted with the same flag resumes without re-running finished
  /// tasks. A file at PATH that is not that journal is refused (exit 1).
  std::string checkpoint_path;

  /// Scans argv for `--jobs=N` / `--jobs N` / `-jN` / `-j N`,
  /// `--checker-threads=N`, and — when `campaign_flags` is true —
  /// `--shard=K/N`, `--out=PATH` and `--checkpoint=PATH`.
  /// Drivers that do not execute through Campaign::run_sharded must leave
  /// `campaign_flags` false: the campaign flags then exit with status 2
  /// instead of being silently swallowed (a sharding run that quietly
  /// executes the whole campaign and writes no artifact is worse than an
  /// error). Malformed values for recognised flags exit with status 2;
  /// unrelated arguments are ignored, so drivers can layer their own
  /// parsing on top (see runtime_flag).
  static RuntimeOptions from_args(int argc, char** argv,
                                  bool campaign_flags = false);
};

/// Whether `arg` is one of the '='-form flags (or `-jN`) that
/// RuntimeOptions::from_args parses. A driver layering its own parsing on
/// top exits 2 on any `-` argument that is neither this nor one of its
/// own flags, so a misspelled or removed flag cannot silently run the
/// defaults. (The space forms `--jobs N` / `-j N` take the next argument
/// too; from_args rejects every other space form.)
bool runtime_flag(const char* arg);

/// Full system configuration.
struct SystemConfig {
  MainCoreConfig main_core;
  BranchPredictorConfig branch_predictor;
  CacheConfig l1i;
  CacheConfig l1d;
  CacheConfig l2;
  DramConfig dram;
  bool l2_stride_prefetcher = true;
  CheckerConfig checker;
  LogConfig log;
  InterruptConfig interrupts;
  DetectionConfig detection;

  /// Table I defaults.
  static SystemConfig standard();
};

}  // namespace paradet
