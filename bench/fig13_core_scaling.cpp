// Figure 13: slowdown across checker-core counts and frequencies.
// Paper: N cores at M MHz perform like 2N cores at M/2 (the parallelism
// is fungible), and many slow cores slightly beat few fast ones because
// with a one-to-one segment mapping only n-1 of n checkers can ever be
// busy -- more segments mean better utilisation.
//
// Runs as one runtime::SweepCampaign over (config point x workload)
// cells: the unchecked baseline runs once per workload (it does not
// depend on the checker configuration), every kernel is assembled once
// through the runtime AssemblyCache, and the cells are written to --out
// like any other campaign's.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "runtime/sweep_campaign.h"

namespace {

int run(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv, /*campaign=*/true);
  bench::print_header(
      "Figure 13: slowdown vs checker core count x frequency",
      "3c@1GHz ~ 6@500MHz-class behaviour; 12 slow cores beat 3-6 fast "
      "ones at equal aggregate GHz (n-1 utilisation)");

  struct Point {
    const char* label;
    unsigned cores;
    std::uint64_t freq_mhz;
  };
  const Point points[] = {
      {"3c@1GHz", 3, 1000},   {"12c@250MHz", 12, 250},
      {"6c@1GHz", 6, 1000},   {"12c@500MHz", 12, 500},
      {"12c@1GHz", 12, 1000},
  };

  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();
  runtime::SweepCampaign sweep(std::size(points), bench::suite_or_fail(options),
                               /*seed=*/0xF160013);
  sweep.enable_baselines(job.config, bench::kInstructionBudget);
  const auto result = sweep.run(
      options.runner(),
      [&](std::size_t point, std::size_t, const runtime::AssemblyCache::Image& image,
          std::uint64_t) {
        sim::SimJob cell = job;
        cell.config.checker.num_cores = points[point].cores;
        cell.config.checker.freq_mhz = points[point].freq_mhz;
        // One-to-one mapping: the log is partitioned per checker core; the
        // total log SRAM stays fixed as in the paper's sweep.
        cell.config.log.segments = points[point].cores;
        return sim::run_job(cell, image);
      });
  options.write_out(result.artifact);

  runtime::TableSpec spec;
  for (const auto& point : points) spec.columns.push_back(point.label);
  spec.width = 12;
  runtime::print_transposed(result, spec, [&](std::size_t p, std::size_t b) {
    return result.slowdown(p, b);
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}
