// Figure 8: density of the delay between a load/store committing on the
// main core and its check completing on a checker core, at Table I
// defaults. Paper: roughly normal per-benchmark distributions within
// 0-5000ns; suite-mean 770ns; worst mean 1550ns (randacc); 99.9% of all
// entries checked within 5000ns; maxima up to ~45us.
//
// Runs as a one-point runtime::SweepCampaign (one checked run per
// workload, no baselines — delay statistics need none), so the figure
// writes --out like any other campaign, and each kernel is assembled once
// through the runtime AssemblyCache.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "runtime/sweep_campaign.h"

namespace {

int run(int argc, char** argv) {
  using namespace paradet;
  const auto options = bench::Options::parse(argc, argv, /*campaign=*/true);
  bench::print_header(
      "Figure 8: distribution of error-detection delays (defaults)",
      "means 256-1550ns, suite mean 770ns, 99.9% < 5000ns, max <= 45us");

  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();
  runtime::SweepCampaign sweep(1, bench::suite_or_fail(options),
                               /*seed=*/0xF160008);
  const auto result = sweep.run(
      options.runner(),
      [&](std::size_t, std::size_t, const runtime::AssemblyCache::Image& image,
          std::uint64_t) { return sim::run_job(job, image); });
  options.write_out(result.artifact);

  // One column per workload: with one point, cell index = workload index.
  const auto& artifact = result.artifact;
  std::printf("%-10s", "bin_ns");
  for (const auto& record : artifact.runs) {
    std::printf(" %12s", result.workload_names[record.index].c_str());
  }
  std::printf("\n");
  const double bin_ns = 250.0;
  for (unsigned bin = 0; bin < 20; ++bin) {
    std::printf("%-10.0f", (bin + 0.5) * bin_ns);
    for (const auto& record : artifact.runs) {
      const auto& h = record.result.delay_ns;
      // Aggregate the run's 50ns-wide bins into 250ns display bins.
      double count = 0;
      for (unsigned sub = 0; sub < 5; ++sub) {
        const unsigned index = bin * 5 + sub;
        if (index < h.bins()) count += static_cast<double>(h.bin_count(index));
      }
      const double density =
          h.summary().count() == 0
              ? 0.0
              : count / (static_cast<double>(h.summary().count()) * bin_ns);
      std::printf(" %12.3e", density);
    }
    std::printf("\n");
  }

  std::printf("\n%-14s %10s %10s %12s\n", "benchmark", "mean_ns", "max_us",
              "frac<5000ns");
  double suite_mean = 0;
  for (const auto& record : artifact.runs) {
    const auto& summary = record.result.delay_ns.summary();
    suite_mean += summary.mean();
    std::printf("%-14s %10.0f %10.1f %11.4f%%\n",
                result.workload_names[record.index].c_str(), summary.mean(),
                summary.max() / 1000.0,
                100.0 * record.result.delay_ns.fraction_below(5000.0));
  }
  std::printf("suite mean detection delay: %.0f ns\n",
              suite_mean / static_cast<double>(artifact.runs.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}
