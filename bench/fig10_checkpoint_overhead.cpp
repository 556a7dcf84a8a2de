// Figure 10: slowdown from the checkpointing system alone (checker cores
// modelled as infinitely fast), across log sizes and instruction
// timeouts. Paper: the default 36KiB/5000 keeps overhead <= 2%; a 10x
// smaller log/timeout costs up to 15%; a 10x larger one (or an infinite
// timeout) is negligible.
//
// Runs as one runtime::SweepCampaign over (log point x workload) cells
// with per-workload unchecked baselines, so the figure takes --jobs and
// --out like every other campaign driver.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/sweep_campaign.h"

namespace {

int run(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv, /*campaign=*/true);
  bench::print_header(
      "Figure 10: checkpoint-only slowdown vs log size / timeout",
      "3.6KiB/500: up to ~1.15; 36KiB/5000: <= ~1.02; 360KiB/50000 and "
      "360KiB/inf: ~1.00");

  struct Point {
    const char* label;
    std::uint64_t log_bytes;
    std::uint64_t timeout;
  };
  const Point points[] = {
      {"3.6KiB/500", 36 * 1024 / 10, 500},
      {"36KiB/5000", 36 * 1024, 5000},
      {"360KiB/50000", 360 * 1024, 50000},
      {"360KiB/inf", 360 * 1024, 0},
  };

  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kCheckpointOnly;  // checkpoint cost only.
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();
  runtime::SweepCampaign sweep(std::size(points), bench::suite_or_fail(options),
                               /*seed=*/0xF160010);
  sweep.enable_baselines(job.config, bench::kInstructionBudget);

  const auto result = sweep.run(
      options.runner(),
      [&](std::size_t point, std::size_t, const runtime::AssemblyCache::Image& image,
          std::uint64_t) {
        sim::SimJob cell = job;
        cell.config.log.total_bytes = points[point].log_bytes;
        cell.config.log.instruction_timeout = points[point].timeout;
        return sim::run_job(cell, image);
      });
  options.write_out(result.artifact);

  runtime::TableSpec spec;
  for (const auto& point : points) spec.columns.push_back(point.label);
  spec.width = 13;
  spec.precision = 4;
  runtime::print_transposed(result, spec, [&](std::size_t p, std::size_t b) {
    return result.slowdown(p, b);
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}
