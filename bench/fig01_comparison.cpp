// Figure 1(d): the qualitative comparison that motivates the paper --
// lockstep (large area+energy, negligible perf cost), redundant
// multithreading (small area, large energy+perf cost) and the desired
// heterogeneous scheme (small on all three) -- quantified on the suite.
#include <cstdio>

#include "baseline/lockstep.h"
#include "baseline/rmt.h"
#include "bench_util.h"
#include "model/area_power.h"

int main(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv);
  bench::print_header(
      "Figure 1(d): lockstep vs RMT vs heterogeneous parallel checking",
      "lockstep: area Large / energy Large / perf Negligible; RMT: Small/"
      "Large/Large; desired: Small/Small/Negligible");

  const SystemConfig config = SystemConfig::standard();
  sim::SimJob base_job;
  base_job.config = config;
  base_job.mode = sim::SimMode::kBaseline;
  base_job.max_instructions = bench::kInstructionBudget;
  sim::SimJob checked_job = base_job;
  checked_job.mode = sim::SimMode::kChecked;
  checked_job.checker = options.checker_exec();

  // Each workload's simulations run on the worker pool; the rows print in
  // suite order once it joins, so stdout is identical at any --jobs.
  struct Row {
    double lockstep = 0, rmt = 0, paradet = 0;
  };
  const auto kernels = bench::suite_or_fail(options);
  const auto rows = options.runner().map(kernels.size(), [&](std::size_t k) {
    const auto assembled = workloads::assemble_or_die(kernels[k]);
    const auto base = sim::run_job(base_job, assembled);
    const auto lockstep = baseline::run_lockstep(config, assembled,
                                                 bench::kInstructionBudget);
    const auto rmt =
        baseline::run_rmt(config, assembled, bench::kInstructionBudget);
    const auto checked = sim::run_job(checked_job, assembled);
    const double base_cycles = static_cast<double>(base.main_done_cycle);
    return Row{lockstep.slowdown,
               static_cast<double>(rmt.cycles) / base_cycles,
               static_cast<double>(checked.main_done_cycle) / base_cycles};
  });

  double lockstep_slowdown = 0, rmt_slowdown = 0, paradet_slowdown = 0;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    lockstep_slowdown += rows[k].lockstep;
    rmt_slowdown += rows[k].rmt;
    paradet_slowdown += rows[k].paradet;
    std::printf("%-14s lockstep %.3f   rmt %.3f   paradet %.3f\n",
                kernels[k].name.c_str(), rows[k].lockstep, rows[k].rmt,
                rows[k].paradet);
  }
  const unsigned count = static_cast<unsigned>(kernels.size());

  const auto area = model::estimate_area(config);
  const auto power = model::estimate_power(config);
  std::printf("\n%-12s %10s %10s %12s\n", "scheme", "area_ovh", "power_ovh",
              "slowdown");
  std::printf("%-12s %9.0f%% %9.0f%% %12.3f\n", "lockstep", 100.0, 100.0,
              lockstep_slowdown / count);
  std::printf("%-12s %9.0f%% %9.0f%% %12.3f   (no hard-fault cover)\n",
              "rmt", 5.0, 90.0, rmt_slowdown / count);
  std::printf("%-12s %9.1f%% %9.1f%% %12.3f\n", "paradet",
              100.0 * area.overhead_without_l2(), 100.0 * power.overhead(),
              paradet_slowdown / count);
  return 0;
}
