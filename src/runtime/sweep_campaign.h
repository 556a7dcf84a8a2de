// SweepCampaign: an N-dimensional (config point × workload) sweep
// flattened onto Campaign's one-dimensional task space.
//
// Every figure reproduction in the paper is a sweep: vary one hardware
// parameter (checker frequency, log size, core count, checkpoint
// latency), run the Table II suite at each point, and print a
// benchmark-major table. Before this layer each driver hand-rolled the
// flattening, the image sharing and the table transpose; SweepCampaign
// fixes one canonical shape for all of them:
//
//   * Task indexing. A grid sweep's cell (point p, workload w) is
//     campaign task p * |workloads| + w — stable across --jobs and
//     --shard, so a sweep inherits Campaign's whole distributed story:
//     any cell subset can run in any process, artifacts merge back with
//     tools/merge_results into the byte-identical unsharded file, and
//     checkpoints resume. A flat sweep (heterogeneous task lists like the
//     ablation studies) instead names a workload per cell explicitly.
//   * Workload assembly. Each workload this shard touches is assembled
//     exactly once through the process-wide runtime::AssemblyCache and
//     the immutable image is shared by every cell and the baseline — no
//     driver assembles the same kernel twice.
//   * Paired baselines. Slowdown figures normalise each workload against
//     an unchecked run that is independent of the sweep point. The
//     baseline is therefore *not* a campaign task (it would collide with
//     the shard modulus): every shard recomputes it locally, and only for
//     workloads with at least one owned cell.
//   * Per-cell result slots. The result indexes this shard's records by
//     cell, with null for cells other shards own, and a transposed-table
//     formatter prints benchmark rows × point columns with "-" for the
//     missing cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "runtime/assembly_cache.h"
#include "runtime/campaign.h"
#include "runtime/parallel_runner.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace paradet::runtime {

/// Result of a sweep: the underlying campaign artifact plus cell-indexed
/// access to this shard's records and the per-workload baselines.
struct SweepResult {
  std::size_t points = 0;
  std::size_t workload_count = 0;
  std::vector<std::string> workload_names;

  /// The flat campaign's artifact (runs kept; also what --out/--checkpoint
  /// persisted).
  CampaignArtifact artifact;

  /// cell index -> position in artifact.runs, or -1 when another shard
  /// owns the cell.
  std::vector<std::ptrdiff_t> record_of_cell;

  /// Per-workload paired baseline runs; valid only where baseline_done.
  std::vector<sim::RunResult> baselines;
  std::vector<char> baseline_done;
  /// Workloads with at least one cell owned by this shard.
  std::vector<char> workload_touched;

  /// This shard's record for a flat cell index, or null if another shard
  /// owns it.
  const sim::RunResult* cell_at(std::size_t index) const {
    const std::ptrdiff_t record = record_of_cell[index];
    return record < 0 ? nullptr : &artifact.runs[record].result;
  }

  /// Grid accessor: the cell of (point, workload).
  const sim::RunResult* cell(std::size_t point, std::size_t workload) const {
    return cell_at(point * workload_count + workload);
  }

  /// The workload's paired baseline, or null when this shard owns none of
  /// its cells (or the sweep ran without baselines).
  const sim::RunResult* baseline(std::size_t workload) const {
    return baseline_done[workload] ? &baselines[workload] : nullptr;
  }

  /// Checked-over-baseline cycle ratio for an owned grid cell.
  double slowdown(std::size_t point, std::size_t workload) const {
    return static_cast<double>(cell(point, workload)->main_done_cycle) /
           static_cast<double>(baselines[workload].main_done_cycle);
  }
};

class SweepCampaign {
 public:
  /// Simulates one cell. `image` is the shared immutable assembled image
  /// of `workload` (pass it to the sim::run_job shared-image overload so
  /// predecode and statics are shared, not copied);
  /// `task_seed` is the cell's deterministic Campaign seed (a pure
  /// function of the sweep seed and the cell index). Must be safe to call
  /// concurrently from multiple workers.
  using CellFn = std::function<sim::RunResult(
      std::size_t point, std::size_t workload,
      const AssemblyCache::Image& image, std::uint64_t task_seed)>;

  /// Grid sweep over points × workloads; cell index = point * |workloads|
  /// + workload.
  SweepCampaign(std::size_t points, std::vector<workloads::Workload> workloads,
                std::uint64_t seed);

  /// Flat sweep: one cell per entry of `cell_workloads`, each naming its
  /// workload by index into `workloads`; `point` passed to the cell
  /// function is the cell index itself. For heterogeneous task lists
  /// (e.g. ablation studies) that still want campaign sharding and shared
  /// assembly.
  static SweepCampaign flat(std::vector<std::size_t> cell_workloads,
                            std::vector<workloads::Workload> workloads,
                            std::uint64_t seed);

  /// Pairs every workload with one unchecked run (SimMode::kBaseline) of
  /// `config`, budget `max_instructions`, computed outside the campaign
  /// task space by every shard that touches the workload.
  void enable_baselines(const SystemConfig& config,
                        std::uint64_t max_instructions);

  std::size_t tasks() const { return cell_workload_.size(); }
  std::uint64_t seed() const { return seed_; }

  /// Executes this shard's cells on `runner` (assembling each touched
  /// workload once via AssemblyCache::instance(), then baselines, then the
  /// campaign proper). Artifact/checkpoint files named in `options` behave
  /// exactly as in Campaign::run_sharded: merged shard artifacts are
  /// byte-identical to the unsharded run's.
  SweepResult run(const ParallelRunner& runner,
                  const CampaignRunOptions& options, const CellFn& cell) const;

 private:
  SweepCampaign() = default;

  std::size_t point_of(std::size_t cell) const {
    return grid_ ? cell / workloads_.size() : cell;
  }

  std::size_t points_ = 0;
  std::vector<workloads::Workload> workloads_;
  std::vector<std::size_t> cell_workload_;  ///< one entry per cell.
  std::uint64_t seed_ = 0;
  bool grid_ = true;
  bool baselines_ = false;
  sim::SimJob baseline_;
};

/// Layout for print_transposed: column labels (one per point) and numeric
/// formatting shared by header, cells and the mean row.
struct TableSpec {
  std::vector<std::string> columns;
  int width = 10;      ///< numeric column width.
  int precision = 3;
  bool mean_row = true;  ///< append a per-point mean over owned cells.
};

/// Prints a grid sweep benchmark-major: one row per workload, one column
/// per point. `value(point, workload)` is invoked only for cells this
/// shard owns; other cells print "-" and merge back via the artifact
/// files, not stdout.
void print_transposed(
    const SweepResult& result, const TableSpec& spec,
    const std::function<double(std::size_t point, std::size_t workload)>&
        value);

}  // namespace paradet::runtime
