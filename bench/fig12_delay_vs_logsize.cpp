// Figure 12: mean (a) and maximum (b) detection delay when varying the
// load-store log size and instruction timeout, at the default checker
// frequency. Paper: mean delay scales linearly with log size (10x log ->
// ~10x delay); with an infinite timeout, benchmarks with long memory-
// quiet stretches (bitcount) see maxima explode -- a 50,000-instruction
// timeout cuts bitcount's max by ~250x at no performance cost.
//
// Runs as one runtime::SweepCampaign over (log point x workload) cells;
// no baselines (delay statistics only), and --out like every other
// campaign driver.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "runtime/sweep_campaign.h"

namespace {

int run(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv, /*campaign=*/true);
  bench::print_header(
      "Figure 12: detection delay vs log size / instruction timeout",
      "(a) mean scales ~linearly with log size; (b) infinite timeouts let "
      "memory-quiet code blow up maxima (bitcount)");

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
      {"36KiB/inf", 36 * 1024, 0},
  };

  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();

  // The delay histogram tops out at 5us for figure 8; maxima here reach
  // ms, which Summary tracks exactly regardless of binning.
  runtime::SweepCampaign sweep(std::size(points), bench::suite_or_fail(options),
                               /*seed=*/0xF160012);
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
  spec.mean_row = false;

  std::printf("(a) mean detection delay, ns\n");
  spec.precision = 0;
  runtime::print_transposed(result, spec, [&](std::size_t p, std::size_t b) {
    return result.cell(p, b).delay_ns.summary().mean();
  });

  std::printf("\n(b) maximum detection delay, us\n");
  spec.precision = 1;
  runtime::print_transposed(result, spec, [&](std::size_t p, std::size_t b) {
    return result.cell(p, b).delay_ns.summary().max() / 1000.0;
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}
