// Figure 7: normalised slowdown per benchmark at the Table I defaults.
// Paper: average 1.75%, maximum 3.4%; overheads dominated by the register
// checkpoint pauses at segment boundaries.
//
// Runs as a one-point runtime::SweepCampaign: the checked runs are the
// campaign cells, written to --out like any other campaign's. The
// unchecked baselines are just per-workload normalisation denominators,
// run by the sweep layer outside the artifact, sharing one immutable
// assembled image per kernel from the runtime AssemblyCache.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "runtime/sweep_campaign.h"

namespace {

int run(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv, /*campaign=*/true);
  bench::print_header(
      "Figure 7: normalised slowdown per benchmark (Table I defaults)",
      "mean 1.0175, max 1.034; all benchmarks low single-digit %");

  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();

  runtime::SweepCampaign sweep(1, bench::suite_or_fail(options),
                               /*seed=*/0xF160007);
  sweep.enable_baselines(job.config, bench::kInstructionBudget);
  const auto result = sweep.run(
      options.runner(),
      [&](std::size_t, std::size_t, const runtime::AssemblyCache::Image& image,
          std::uint64_t) { return sim::run_job(job, image); });
  options.write_out(result.artifact);

  std::printf("%-14s %15s %15s %9s %12s %11s\n", "benchmark",
              "baseline_cycles", "checked_cycles", "slowdown", "checkpoints",
              "log_stall_cy");
  double slowdown_sum = 0;
  for (std::size_t b = 0; b < result.workload_count; ++b) {
    const sim::RunResult& checked = result.cell(0, b);
    const double slowdown = result.slowdown(0, b);
    slowdown_sum += slowdown;
    std::printf("%-14s %15llu %15llu %9.4f %12llu %11llu\n",
                result.workload_names[b].c_str(),
                static_cast<unsigned long long>(
                    result.baselines[b].main_done_cycle),
                static_cast<unsigned long long>(checked.main_done_cycle),
                slowdown,
                static_cast<unsigned long long>(checked.checkpoints_taken),
                static_cast<unsigned long long>(checked.log_full_stall_cycles));
  }
  std::printf("mean slowdown: %.4f\n",
              slowdown_sum / static_cast<double>(result.workload_count));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}
