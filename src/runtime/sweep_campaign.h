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
//     campaign task p * |workloads| + w, so cell seeds and the artifact's
//     record order are stable across --jobs. A flat sweep (heterogeneous
//     task lists like the ablation studies) instead names a workload per
//     cell explicitly.
//   * Workload assembly. Each workload is assembled exactly once through
//     the process-wide runtime::AssemblyCache and the immutable image is
//     shared by every cell and the baseline — no driver assembles the
//     same kernel twice.
//   * Paired baselines. Slowdown figures normalise each workload against
//     an unchecked run that is independent of the sweep point. The
//     baseline is therefore not a campaign task: it is one run per
//     workload, outside the artifact.
//   * Per-cell result slots, and a transposed-table formatter that prints
//     benchmark rows × point columns.
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
/// access to its records and the per-workload baselines.
struct SweepResult {
  std::size_t points = 0;
  std::size_t workload_count = 0;
  std::vector<std::string> workload_names;

  /// The flat campaign's artifact: one record per cell, in cell order
  /// (what --out writes).
  CampaignArtifact artifact;

  /// Per-workload paired baseline runs; empty unless baselines are
  /// enabled.
  std::vector<sim::RunResult> baselines;

  /// The record of a flat cell index.
  const sim::RunResult& cell_at(std::size_t index) const {
    return artifact.runs[index].result;
  }

  /// Grid accessor: the cell of (point, workload).
  const sim::RunResult& cell(std::size_t point, std::size_t workload) const {
    return cell_at(point * workload_count + workload);
  }

  /// Checked-over-baseline cycle ratio for a grid cell.
  double slowdown(std::size_t point, std::size_t workload) const {
    return static_cast<double>(cell(point, workload).main_done_cycle) /
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
  /// (e.g. ablation studies) that still want one campaign and shared
  /// assembly.
  static SweepCampaign flat(std::vector<std::size_t> cell_workloads,
                            std::vector<workloads::Workload> workloads,
                            std::uint64_t seed);

  /// Pairs every workload with one unchecked run (SimMode::kBaseline) of
  /// `config`, budget `max_instructions`, computed outside the campaign
  /// task space.
  void enable_baselines(const SystemConfig& config,
                        std::uint64_t max_instructions);

  std::size_t tasks() const { return cell_workload_.size(); }
  std::uint64_t seed() const { return seed_; }

  /// Executes every cell on `runner` (assembling each workload once via
  /// AssemblyCache::instance(), then baselines, then the campaign proper).
  SweepResult run(const ParallelRunner& runner, const CellFn& cell) const;

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
  bool mean_row = true;  ///< append a per-point mean over the workloads.
};

/// Prints a grid sweep benchmark-major: one row per workload, one column
/// per point, with `value(point, workload)` in each cell.
void print_transposed(
    const SweepResult& result, const TableSpec& spec,
    const std::function<double(std::size_t point, std::size_t workload)>&
        value);

}  // namespace paradet::runtime
