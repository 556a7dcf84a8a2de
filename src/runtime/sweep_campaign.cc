#include "runtime/sweep_campaign.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace paradet::runtime {

SweepCampaign::SweepCampaign(std::size_t points,
                             std::vector<workloads::Workload> workloads,
                             std::uint64_t seed)
    : points_(points), workloads_(std::move(workloads)), seed_(seed) {
  cell_workload_.reserve(points_ * workloads_.size());
  for (std::size_t cell = 0; cell < points_ * workloads_.size(); ++cell) {
    cell_workload_.push_back(cell % workloads_.size());
  }
}

SweepCampaign SweepCampaign::flat(std::vector<std::size_t> cell_workloads,
                                  std::vector<workloads::Workload> workloads,
                                  std::uint64_t seed) {
  SweepCampaign sweep;
  sweep.workloads_ = std::move(workloads);
  for (const std::size_t w : cell_workloads) {
    if (w >= sweep.workloads_.size()) {
      throw std::invalid_argument(
          "SweepCampaign::flat: cell names a workload index out of range");
    }
  }
  sweep.cell_workload_ = std::move(cell_workloads);
  sweep.points_ = sweep.cell_workload_.size();
  sweep.seed_ = seed;
  sweep.grid_ = false;
  return sweep;
}

void SweepCampaign::enable_baselines(const SystemConfig& config,
                                     std::uint64_t max_instructions) {
  baselines_ = true;
  baseline_.config = config;
  baseline_.mode = sim::SimMode::kBaseline;
  baseline_.max_instructions = max_instructions;
}

SweepResult SweepCampaign::run(const ParallelRunner& runner,
                               const CellFn& cell) const {
  const std::size_t workload_count = workloads_.size();
  SweepResult result;
  result.points = points_;
  result.workload_count = workload_count;
  result.workload_names.reserve(workload_count);
  for (const auto& workload : workloads_) {
    result.workload_names.push_back(workload.name);
  }

  // One immutable image per workload via the process-wide cache, and
  // (when enabled) its paired baseline run. Both fan out on the worker
  // pool; each baseline is a single deterministic simulation, so
  // scheduling order cannot change any number.
  std::vector<AssemblyCache::Image> images(workload_count);
  if (baselines_) result.baselines.resize(workload_count);
  runner.for_each(workload_count, [&](std::size_t w) {
    images[w] = AssemblyCache::instance().get(workloads_[w]);
    if (baselines_) result.baselines[w] = sim::run_job(baseline_, images[w]);
  });

  // The campaign proper; the per-cell slots (and any table printed from
  // them) read its records.
  const Campaign campaign(cell_workload_.size(), seed_);
  result.artifact =
      campaign.run(runner, [&](std::size_t i, std::uint64_t task_seed) {
        const std::size_t w = cell_workload_[i];
        return cell(point_of(i), w, images[w], task_seed);
      });
  return result;
}

void print_transposed(
    const SweepResult& result, const TableSpec& spec,
    const std::function<double(std::size_t point, std::size_t workload)>&
        value) {
  if (spec.columns.size() != result.points) {
    throw std::invalid_argument(
        "print_transposed: one column label per sweep point required");
  }
  // The row-label column: workload names under a fixed-width header.
  constexpr int kLabelWidth = 14;
  std::printf("%-*s", kLabelWidth, "benchmark");
  for (const std::string& column : spec.columns) {
    std::printf(" %*s", spec.width, column.c_str());
  }
  std::printf("\n");

  for (std::size_t w = 0; w < result.workload_count; ++w) {
    std::printf("%-*s", kLabelWidth, result.workload_names[w].c_str());
    for (std::size_t p = 0; p < result.points; ++p) {
      std::printf(" %*.*f", spec.width, spec.precision, value(p, w));
    }
    std::printf("\n");
  }

  if (!spec.mean_row) return;
  std::printf("%-*s", kLabelWidth, "mean");
  for (std::size_t p = 0; p < result.points; ++p) {
    double sum = 0;
    for (std::size_t w = 0; w < result.workload_count; ++w) sum += value(p, w);
    std::printf(" %*.*f", spec.width, spec.precision,
                sum / static_cast<double>(result.workload_count));
  }
  std::printf("\n");
}

}  // namespace paradet::runtime
